package core

import (
	"fmt"
	"slices"

	"repro/internal/balance"
)

// wholeNetworkCut is the search a cut ran before it had a window, kept as
// the reference minCut is held to (TestWindowedCutsMatchWholeNetwork): a
// clone of the whole skeleton with the pinned components collapsed into
// the source and the sink.
func (net *netModel) wholeNetworkCut(pin []int8, lo, hi, collapsedW int64) *balance.Result {
	nw := net.nw.Clone()
	var srcPins, snkPins []int
	for c, p := range pin {
		switch p {
		case pinSrc:
			srcPins = append(srcPins, net.compNode(c))
		case pinSnk:
			snkPins = append(snkPins, net.compNode(c))
		}
	}
	nw.CollapseIntoSource(srcPins)
	nw.CollapseIntoSink(snkPins)
	return balance.MinCut(nw, net.weight, lo, hi, collapsedW, nil)
}

// checkWindowedCuts makes the cuts assignStages makes for a at opts and
// holds each cut's windowed search to the whole-network search on the same
// pins: the same source side, cost, weight, feasibility and number of
// min-cut computations, the last below the window's iteration cap. It
// returns the number of cuts compared and the largest window met.
func checkWindowedCuts(a *Analysis, options Options) (cuts, widest int, err error) {
	opts, err := a.resolveOptions(options)
	if err != nil {
		return 0, 0, err
	}
	ws, net, nc := new(workspace), a.net, a.scc.NumComps()
	assigned, pin := make([]bool, nc), make([]int8, nc)
	var collapsedW int64
	for i := 1; i < opts.Stages; i++ {
		lo, hi := a.cutBand(i, opts.Stages, opts.Epsilon, collapsedW)
		a.pinCut(pin, assigned, lo, hi)
		got := net.minCut(ws, pin, lo, hi, collapsedW, make([]bool, net.nNodes))
		n := ws.nw.Len()
		widest = max(widest, n)
		want := net.wholeNetworkCut(pin, lo, hi, collapsedW)
		label := fmt.Sprintf("D=%d cut %d (window of %d nodes)", opts.Stages, i, n)
		switch {
		case !slices.Equal(got.SourceSide, want.SourceSide):
			return cuts, widest, fmt.Errorf("%s: source side differs from the whole network's", label)
		case got.Cost != want.Cost || got.Weight != want.Weight || got.Feasible != want.Feasible || got.Iterations != want.Iterations:
			return cuts, widest, fmt.Errorf("%s: cost %d weight %d feasible %v in %d iterations, whole network %d %d %v in %d",
				label, got.Cost, got.Weight, got.Feasible, got.Iterations, want.Cost, want.Weight, want.Feasible, want.Iterations)
		case got.Iterations >= 2*n+4:
			return cuts, widest, fmt.Errorf("%s: %d iterations reach the cap", label, got.Iterations)
		}
		cuts++
		for c := range assigned {
			if !assigned[c] && got.SourceSide[net.compNode(c)] {
				assigned[c] = true
				collapsedW += a.compWeight[c]
			}
		}
	}
	return cuts, widest, nil
}
