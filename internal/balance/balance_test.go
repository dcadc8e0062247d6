package balance

import (
	"math/rand"
	"testing"

	"repro/internal/maxflow"
)

// chain builds a path network s=0 -> 1 -> ... -> n-1=t with the given edge
// capacities (len = n-1) and unit node weights on interior nodes.
func chain(caps []int64) (*maxflow.Network, []int64) {
	n := len(caps) + 1
	nw := maxflow.New(n, 0, n-1)
	for i, c := range caps {
		nw.AddEdge(i, i+1, c)
	}
	weight := make([]int64, n)
	for i := 1; i < n-1; i++ {
		weight[i] = 1
	}
	return nw, weight
}

func sideWeight(side []bool, weight []int64) int64 {
	var w int64
	for i, s := range side {
		if s {
			w += weight[i]
		}
	}
	return w
}

func TestChainPicksCheapestInBand(t *testing.T) {
	// Interior nodes 1..4 (weight 1 each). Edge caps: 5,1,9,1,5.
	// Cutting after node k costs caps[k]. Band [2,2] forces W(X)=2
	// (nodes 1,2 upstream), i.e. the cut of capacity 9 — even though
	// cheaper cuts exist outside the band.
	nw, weight := chain([]int64{5, 1, 9, 1, 5})
	res := MinCut(nw, weight, 2, 2, 0, nil)
	if !res.Feasible {
		t.Fatalf("no feasible cut found: %+v", res)
	}
	if res.Weight != 2 {
		t.Errorf("W(X) = %d, want 2", res.Weight)
	}
	if res.Cost != 9 {
		t.Errorf("cost = %d, want 9", res.Cost)
	}
}

func TestChainWideBandPrefersCheap(t *testing.T) {
	// With a wide band the heuristic should keep the globally cheapest cut.
	nw, weight := chain([]int64{5, 1, 9, 1, 5})
	res := MinCut(nw, weight, 1, 4, 0, nil)
	if !res.Feasible {
		t.Fatalf("no feasible cut: %+v", res)
	}
	if res.Cost != 1 {
		t.Errorf("cost = %d, want 1 (a unit-capacity edge)", res.Cost)
	}
	if w := sideWeight(res.SourceSide, weight); w != res.Weight {
		t.Errorf("reported weight %d != recomputed %d", res.Weight, w)
	}
}

func TestTooLightGrowsSourceSide(t *testing.T) {
	// Cheapest cut is right at the source (cap 1), weight 0. Band [2,3]
	// forces the algorithm to collapse forward.
	nw, weight := chain([]int64{1, 4, 6, 8, 10})
	res := MinCut(nw, weight, 2, 3, 0, nil)
	if !res.Feasible {
		t.Fatalf("no feasible cut: %+v", res)
	}
	if res.Weight < 2 || res.Weight > 3 {
		t.Errorf("W(X) = %d outside [2,3]", res.Weight)
	}
}

func TestTooHeavyShrinksSourceSide(t *testing.T) {
	// Cheapest cut is right before the sink (cap 1), weight 4. Band [1,2]
	// forces collapsing nodes into the sink.
	nw, weight := chain([]int64{10, 8, 6, 4, 1})
	res := MinCut(nw, weight, 1, 2, 0, nil)
	if !res.Feasible {
		t.Fatalf("no feasible cut: %+v", res)
	}
	if res.Weight < 1 || res.Weight > 2 {
		t.Errorf("W(X) = %d outside [1,2]", res.Weight)
	}
}

func TestInfeasibleBandReturnsBestEffort(t *testing.T) {
	// One giant node of weight 10 between source and sink; band [4,6] is
	// unsatisfiable (sides can only weigh 0 or 10... interior single node:
	// X weight ∈ {0, 10}).
	nw := maxflow.New(3, 0, 2)
	nw.AddEdge(0, 1, 3)
	nw.AddEdge(1, 2, 3)
	weight := []int64{0, 10, 0}
	res := MinCut(nw, weight, 4, 6, 0, nil)
	if res.Feasible {
		t.Fatalf("impossible band reported feasible: %+v", res)
	}
	if res.Weight != 0 && res.Weight != 10 {
		t.Errorf("best-effort weight = %d, want 0 or 10", res.Weight)
	}
}

func TestDirectionEdgesRespected(t *testing.T) {
	// a -> b dependence (inf reverse edge): any returned finite cut keeps
	// b downstream whenever a is downstream.
	nw := maxflow.New(4, 0, 3)
	a, b := 1, 2
	nw.AddEdge(0, a, 2)
	nw.AddEdge(a, b, 4)
	nw.AddEdge(b, a, maxflow.Inf) // direction: b in X => a in X
	nw.AddEdge(b, 3, 2)
	weight := []int64{0, 1, 1, 0}
	res := MinCut(nw, weight, 1, 1, 0, nil)
	if !res.Feasible {
		t.Fatalf("no feasible cut: %+v", res)
	}
	if res.SourceSide[b] && !res.SourceSide[a] {
		t.Error("cut violates the dependence direction")
	}
	if res.Cost >= maxflow.Inf/2 {
		t.Error("returned an infinite cut")
	}
}

func TestRandomBandsAreHonored(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		n := 6 + rng.Intn(6)
		nw := maxflow.New(n, 0, n-1)
		// Random DAG-ish edges forward to guarantee finite cuts exist.
		for u := 0; u < n-1; u++ {
			nw.AddEdge(u, u+1, int64(1+rng.Intn(20)))
			if v := u + 2 + rng.Intn(3); v < n {
				nw.AddEdge(u, v, int64(1+rng.Intn(20)))
			}
		}
		weight := make([]int64, n)
		var total int64
		for u := 1; u < n-1; u++ {
			weight[u] = int64(1 + rng.Intn(5))
			total += weight[u]
		}
		target := total / 2
		lo, hi := target-2, target+2
		if lo < 0 {
			lo = 0
		}
		res := MinCut(nw, weight, lo, hi, 0, nil)
		if res.Feasible {
			if res.Weight < lo || res.Weight > hi {
				t.Fatalf("trial %d: feasible result outside band: %+v lo=%d hi=%d", trial, res, lo, hi)
			}
			if got := sideWeight(res.SourceSide, weight); got != res.Weight {
				t.Fatalf("trial %d: weight mismatch", trial)
			}
			if !res.SourceSide[0] || res.SourceSide[n-1] {
				t.Fatalf("trial %d: source/sink on wrong side", trial)
			}
		}
	}
}

func TestMinProgressAvoidsEmptyStage(t *testing.T) {
	// One heavy node (12) then small ones; band [5,5] is unsatisfiable: the
	// choices are W=0 (empty stage) or W=12. With minProgress 0 the search
	// must prefer 12 over the no-progress empty cut.
	nw := maxflow.New(6, 0, 5)
	nw.AddEdge(0, 1, 0) // anchor
	nw.AddEdge(1, 2, 2)
	nw.AddEdge(2, 3, 2)
	nw.AddEdge(3, 4, 2)
	nw.AddEdge(4, 5, 0) // anchor
	weight := []int64{0, 12, 1, 1, 1, 0}
	res := MinCut(nw, weight, 5, 5, 0, nil)
	if res.Feasible {
		t.Fatalf("unsatisfiable band reported feasible: %+v", res)
	}
	if res.Weight == 0 {
		t.Errorf("best-effort picked the empty stage; weight = %d", res.Weight)
	}
}

func TestMinProgressRespectsPriorStages(t *testing.T) {
	// With minProgress = 3, a best-effort cut of weight 3 adds nothing new
	// and must lose to any heavier finite cut.
	nw := maxflow.New(6, 0, 5)
	nw.AddEdge(0, 1, 0)
	nw.AddEdge(1, 2, 1)
	nw.AddEdge(2, 3, 50)
	nw.AddEdge(3, 4, 1)
	nw.AddEdge(4, 5, 0)
	weight := []int64{0, 3, 4, 4, 4, 0}
	// Pretend stages so far weigh 3 (node 1 pinned).
	nw.CollapseIntoSource([]int{1})
	res := MinCut(nw, weight, 30, 30, 3, nil)
	if res.Weight <= 3 {
		t.Errorf("best-effort made no progress past the pinned weight: %+v", res)
	}
}
