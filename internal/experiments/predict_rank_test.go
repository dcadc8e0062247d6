package experiments

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/netbench"
	"repro/internal/npsim"
)

// TestPredictRanksSimulatedDepths holds the throughput model to the cycle
// simulator in the paper's regime — free handoffs, one engine per stage:
// for every PPS and its traffic, costmodel.Predict of the cut's stage
// weights (sync 0, cores = D) must order the depths D=1..10 as
// npsim.Simulate's cycles per packet does, with Spearman's ρ ≥ 0.85. The
// simulation runs long enough to reach steady state: at 200 iterations QM's
// queues have not filled yet, and its serial stage reads a warm-up transient
// (67.8 cycles at 200 iterations, 86.1 at 4,000). Deterministic: weights and simulated cycles are pure functions of the
// program, the depth and the generated traffic.
func TestPredictRanksSimulatedDepths(t *testing.T) {
	const iters, minRho = 1000, 0.85
	for _, p := range append(netbench.IPv4Forwarding(), netbench.IPForwarding()...) {
		prog, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Analyze(prog, costmodel.Default())
		if err != nil {
			t.Fatal(err)
		}
		var predicted, simulated []float64
		for _, d := range Degrees {
			res, err := a.Partition(core.Options{Stages: d})
			if err != nil {
				t.Fatalf("%s/%s D=%d: %v", p.App, p.Name, d, err)
			}
			weights := make([]float64, len(res.Report.Stages))
			for i, s := range res.Report.Stages {
				weights[i] = float64(s.Cost.Total)
			}
			sim, err := npsim.Simulate(res.Stages, netbench.NewWorld(p.Traffic(iters)), iters, npsim.DefaultConfig())
			if err != nil {
				t.Fatalf("%s/%s D=%d: %v", p.App, p.Name, d, err)
			}
			predicted = append(predicted, costmodel.Predict(weights, nil, 0, d))
			simulated = append(simulated, sim.CyclesPerPacket)
		}
		rho := spearman(predicted, simulated)
		t.Logf("%s/%s: ρ = %.2f", p.App, p.Name, rho)
		if rho < minRho {
			t.Errorf("%s/%s: Predict ranks D=1..10 against the simulator with ρ = %.2f < %.2f\npredicted %v\nsimulated %v",
				p.App, p.Name, rho, minRho, predicted, simulated)
		}
	}
}

// spearman is the rank correlation of x and y: Pearson's r of their ranks,
// tied values sharing the mean of the ranks they span.
func spearman(x, y []float64) float64 {
	rx, ry := ranks(x), ranks(y)
	n := float64(len(x))
	mean := (n + 1) / 2
	var sxy, sxx, syy float64
	for i := range rx {
		dx, dy := rx[i]-mean, ry[i]-mean
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

// ranks returns the 1-based rank of each value of v.
func ranks(v []float64) []float64 {
	order := make([]int, len(v))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(v[a], v[b]) })
	r := make([]float64, len(v))
	for lo := 0; lo < len(order); {
		hi := lo
		for hi+1 < len(order) && v[order[hi+1]] == v[order[lo]] {
			hi++
		}
		for k := lo; k <= hi; k++ {
			r[order[k]] = float64(lo+hi)/2 + 1
		}
		lo = hi + 1
	}
	return r
}
