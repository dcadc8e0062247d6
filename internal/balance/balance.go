// Package balance implements the iterative balanced minimum-cut heuristic
// of the pipelining transformation (paper section 3.3, figure 7), adapted
// from Yang–Wong's FBB algorithm: push-relabel min cuts are computed
// repeatedly, collapsing nodes into the source (when the source side is too
// light) or into the sink (too heavy) until the source-side weight W(X)
// falls within [(1-ε)·target, (1+ε)·target]. Re-runs after collapsing are
// incremental (warm-started preflow), per the paper.
//
// Infinite-capacity edges encode direction constraints (an edge a -> b with
// capacity >= maxflow.Inf/2 means "a upstream implies b upstream"). When
// the heuristic moves a node across the cut it moves the node's constraint
// closure with it, so finite cuts remain reachable. The constraints are read
// off the network's own adjacency, which every clone of a skeleton shares;
// the search builds no lists of its own.
package balance

import "repro/internal/maxflow"

// Result describes the cut the heuristic settled on.
type Result struct {
	// SourceSide[u] reports whether node u landed upstream of the cut.
	SourceSide []bool
	// Cost is the cut's total capacity.
	Cost int64
	// Weight is W(X), the summed node weight of the source side.
	Weight int64
	// Feasible indicates the balance constraint was met exactly; when
	// false, the returned cut is the best (closest-to-target, then
	// cheapest) finite cut encountered.
	Feasible bool
	// Iterations is the number of min-cut computations performed.
	Iterations int
}

// debugLog, when set by tests, observes each iteration.
var debugLog func(iter int, wx, cost, lo, hi int64)

// MinCut finds a minimum-cost cut of nw whose source-side weight lies in
// [lo, hi]. weight is indexed by node id (source/sink conventionally 0).
// The network is consumed (contracted) by the search.
//
// minProgress is the weight already committed to the source side by earlier
// cuts: best-effort results must exceed it whenever any finite cut does,
// so an infeasible band never produces an empty pipeline stage.
//
// scratch is the search's working storage, 2·nw.Len() entries whatever they
// hold (a shorter one, nil included, is replaced): a caller making many cuts
// hands each the same slice. Nothing returned points into it.
func MinCut(nw *maxflow.Network, weight []int64, lo, hi, minProgress int64, scratch []int64) *Result {
	n := nw.Len()
	if len(scratch) < 2*n {
		scratch = make([]int64, 2*n)
	}
	s := &search{nw: nw, weight: weight, gain: scratch[:n], mark: scratch[n : 2*n]}
	clear(s.mark)
	var best *Result

	better := func(a, b *Result) bool {
		if b == nil {
			return true
		}
		// A cut that adds no weight beyond earlier stages produces an
		// empty stage; any progressing finite cut beats it.
		aProg, bProg := a.Weight > minProgress, b.Weight > minProgress
		if aProg != bProg {
			return aProg
		}
		da, db := distanceToBand(a.Weight, lo, hi), distanceToBand(b.Weight, lo, hi)
		if da != db {
			return da < db
		}
		// Equal distance: prefer the heavier side, then the cheaper cut.
		if a.Weight != b.Weight {
			return a.Weight > b.Weight
		}
		return a.Cost < b.Cost
	}

	for iter := 1; iter <= 2*n+4; iter++ {
		nw.MaxFlow()
		side := nw.SourceSide()
		cost := nw.CutValue(side)
		var wx int64
		for u := 0; u < n; u++ {
			if side[u] {
				wx += weight[u]
			}
		}
		cur := &Result{SourceSide: side, Cost: cost, Weight: wx, Iterations: iter}
		finite := cost < maxflow.Inf/2
		if debugLog != nil {
			debugLog(iter, wx, cost, lo, hi)
		}
		if finite && better(cur, best) {
			best = cur
		}
		switch {
		case finite && wx >= lo && wx <= hi:
			cur.Feasible = true
			return cur

		case wx < lo:
			// Too light: absorb the current source side plus one frontier
			// node (with its upstream-forcing closure) into the source.
			group := s.closureOfFrontier(side, false)
			if group == nil {
				return finish(best, cur)
			}
			for u := 0; u < n; u++ {
				if side[u] {
					group = append(group, u)
				}
			}
			nw.CollapseIntoSource(group)
			s.queue = group // the closure's queue, grown: keep the larger buffer

		default:
			// Too heavy: push one frontier node (with its downstream-
			// forcing closure) across to the sink.
			group := s.closureOfFrontier(side, true)
			if group == nil {
				return finish(best, cur)
			}
			nw.CollapseIntoSink(group)
		}
	}
	return finish(best, &Result{SourceSide: make([]bool, n), Iterations: 2*n + 4})
}

// finish returns the best finite result recorded, falling back to last.
func finish(best, last *Result) *Result {
	if best != nil {
		best.Iterations = last.Iterations
		return best
	}
	return last
}

// distanceToBand measures how far w is from [lo, hi].
func distanceToBand(w, lo, hi int64) int64 {
	switch {
	case w < lo:
		return lo - w
	case w > hi:
		return w - hi
	}
	return 0
}

// search is one MinCut call's scratch, reused across its iterations: node
// marks (mark[u] == stamp: u is marked by the walk at hand), the closure's
// queue, and the frontier's candidates with their gains.
type search struct {
	nw     *maxflow.Network
	weight []int64
	mark   []int64
	stamp  int64
	queue  []int
	gain   []int64
	cands  []int
}

// frontierCandidates lists representative nodes adjacent to the current
// cut, on the requested side, ordered by descending incident cut capacity
// (the costliest edges are the ones we most want to stop cutting), then by
// ascending weight, then by node id — a total order, so the list does not
// depend on the order the cut edges are met in.
func (s *search) frontierCandidates(side []bool, fromSource bool) []int {
	nw, gain, weight := s.nw, s.gain, s.weight
	out := s.cands[:0]
	s.stamp++
	nw.ForEachEdge(func(_, tail, head int, capacity int64) {
		if !side[tail] || side[head] {
			return
		}
		cand := head
		if fromSource {
			cand = tail
		}
		r := nw.Find(cand)
		if r == nw.Source || r == nw.Sink {
			return
		}
		if s.mark[r] != s.stamp {
			s.mark[r] = s.stamp
			gain[r] = 0
			out = append(out, r)
		}
		gain[r] += capacity
	})
	// Insertion sort — candidate sets are small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if gain[b] > gain[a] || (gain[b] == gain[a] && (weight[b] < weight[a] || (weight[b] == weight[a] && b < a))) {
				out[j-1], out[j] = b, a
			} else {
				break
			}
		}
	}
	s.cands = out
	return out
}

// closureOfFrontier returns the first frontier candidate that can cross the
// cut, together with every node its move forces across with it. Towards the
// source (toSink false) that is a sink-side candidate and its forward
// constraint closure, which must not pull in the sink; towards the sink, a
// source-side candidate and its reverse closure, which must not pull in the
// source. Returns nil when no candidate works. The result is scratch: it is
// valid until the next call.
func (s *search) closureOfFrontier(side []bool, toSink bool) []int {
	forbidden := s.nw.Sink
	if toSink {
		forbidden = s.nw.Source
	}
	for _, v := range s.frontierCandidates(side, toSink) {
		if group, ok := s.closure(v, !toSink, forbidden); ok {
			return group
		}
	}
	return nil
}

// closure walks the constraints breadth-first from representative v over
// representative nodes — forward along a -> b (a upstream forces b
// upstream) or in reverse — failing if the forbidden terminal is pulled in.
// A group's constraints are those of all its members.
func (s *search) closure(v int, forward bool, forbidden int) ([]int, bool) {
	nw := s.nw
	s.stamp++
	queue := append(s.queue[:0], v)
	s.mark[v] = s.stamp
	ok := true
	for qh := 0; qh < len(queue); qh++ {
		u := queue[qh]
		if u == forbidden {
			ok = false
			break
		}
		nw.ForEachIncident(u, func(e int) {
			// The constraint is the forward (even) edge of the pair: follow
			// it from its tail going forward, from its head in reverse.
			if (e&1 == 0) != forward || nw.EdgeCap(e&^1) < maxflow.Inf/2 {
				return
			}
			_, w := nw.EdgeEnds(e)
			if rw := nw.Find(w); s.mark[rw] != s.stamp {
				s.mark[rw] = s.stamp
				queue = append(queue, rw)
			}
		})
	}
	s.queue = queue
	return queue, ok
}
