package maxflow

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestSingleEdge(t *testing.T) {
	nw := New(2, 0, 1)
	nw.AddEdge(0, 1, 7)
	if got := nw.MaxFlow(); got != 7 {
		t.Fatalf("MaxFlow = %d, want 7", got)
	}
	side := nw.SourceSide()
	if !side[0] || side[1] {
		t.Errorf("source side = %v", side)
	}
	if nw.CutValue(side) != 7 {
		t.Errorf("CutValue = %d, want 7", nw.CutValue(side))
	}
}

func TestSeriesBottleneck(t *testing.T) {
	// 0 -5-> 1 -2-> 2 -9-> 3 : flow 2, cut after node 1.
	nw := New(4, 0, 3)
	nw.AddEdge(0, 1, 5)
	e := nw.AddEdge(1, 2, 2)
	nw.AddEdge(2, 3, 9)
	if got := nw.MaxFlow(); got != 2 {
		t.Fatalf("MaxFlow = %d, want 2", got)
	}
	side := nw.SourceSide()
	cut := nw.CutEdges(side)
	if len(cut) != 1 || cut[0] != e {
		t.Errorf("cut edges = %v, want [%d]", cut, e)
	}
}

func TestClassicCLRS(t *testing.T) {
	// The CLRS flow network with max flow 23.
	nw := New(6, 0, 5)
	nw.AddEdge(0, 1, 16)
	nw.AddEdge(0, 2, 13)
	nw.AddEdge(1, 3, 12)
	nw.AddEdge(2, 1, 4)
	nw.AddEdge(2, 4, 14)
	nw.AddEdge(3, 2, 9)
	nw.AddEdge(3, 5, 20)
	nw.AddEdge(4, 3, 7)
	nw.AddEdge(4, 5, 4)
	if got := nw.MaxFlow(); got != 23 {
		t.Fatalf("MaxFlow = %d, want 23", got)
	}
	side := nw.SourceSide()
	if nw.CutValue(side) != 23 {
		t.Errorf("min cut value = %d, want 23", nw.CutValue(side))
	}
}

func TestParallelEdges(t *testing.T) {
	nw := New(2, 0, 1)
	nw.AddEdge(0, 1, 3)
	nw.AddEdge(0, 1, 4)
	if got := nw.MaxFlow(); got != 7 {
		t.Fatalf("MaxFlow = %d, want 7", got)
	}
}

func TestDisconnected(t *testing.T) {
	nw := New(3, 0, 2)
	nw.AddEdge(0, 1, 5)
	if got := nw.MaxFlow(); got != 0 {
		t.Fatalf("MaxFlow = %d, want 0", got)
	}
	side := nw.SourceSide()
	if !side[0] || !side[1] || side[2] {
		t.Errorf("side = %v, want node 1 with the source", side)
	}
}

func TestInfiniteEdgeNeverCut(t *testing.T) {
	// 0 -inf-> 1 -3-> 2; the cut must take the capacity-3 edge.
	nw := New(3, 0, 2)
	nw.AddEdge(0, 1, Inf)
	e := nw.AddEdge(1, 2, 3)
	if got := nw.MaxFlow(); got != 3 {
		t.Fatalf("MaxFlow = %d, want 3", got)
	}
	cut := nw.CutEdges(nw.SourceSide())
	if len(cut) != 1 || cut[0] != e {
		t.Errorf("cut = %v, want the finite edge", cut)
	}
}

func TestReverseInfEnforcesDirection(t *testing.T) {
	// Dependence u->v modeled as cheap forward edge + infinite reverse
	// edge: any cut placing v upstream is infinite. Diamond:
	// s->a(2), s->b(100), a->t(100), b->t(3), plus dependence edges b->a
	// with reverse-inf a->b. Cutting {s,a}|{b,t} would cost 2+100;
	// {s}|{a,b,t} costs 2+100... the cheap cut {s,b}|{a,t} (cost 2+3=5)
	// must be forbidden only if it separates the dependence backwards.
	nw := New(4, 0, 3)
	nw.AddEdge(0, 1, 2)   // s->a
	nw.AddEdge(0, 2, 100) // s->b
	nw.AddEdge(1, 3, 100) // a->t
	nw.AddEdge(2, 3, 3)   // b->t
	nw.AddEdge(1, 2, Inf) // direction enforcement: a cannot be upstream of b... (a in S => b in S)
	got := nw.MaxFlow()
	// Valid finite cuts: {s}: 102; {s,a}: would cut a->b Inf? a in S, b not: Inf.
	// {s,b}: 2+3=5; {s,a,b}: 100+3=103. Min = 5.
	if got != 5 {
		t.Fatalf("MaxFlow = %d, want 5", got)
	}
	side := nw.SourceSide()
	if side[1] {
		t.Error("node a must not be on the source side (infinite edge)")
	}
	if !side[2] {
		t.Error("node b should be on the source side for the min cut")
	}
}

func TestCollapseIntoSourceChangesCut(t *testing.T) {
	// 0 -1-> 1 -10-> 2; min cut is the first edge (1). After collapsing
	// node 1 into the source, the only cut left is the 10-edge.
	nw := New(3, 0, 2)
	nw.AddEdge(0, 1, 1)
	nw.AddEdge(1, 2, 10)
	if got := nw.MaxFlow(); got != 1 {
		t.Fatalf("initial MaxFlow = %d, want 1", got)
	}
	nw.CollapseIntoSource([]int{1})
	if got := nw.MaxFlow(); got != 10 {
		t.Fatalf("after collapse MaxFlow = %d, want 10", got)
	}
	side := nw.SourceSide()
	if !side[1] {
		t.Error("collapsed node must be on the source side")
	}
}

func TestCollapseIntoSinkChangesCut(t *testing.T) {
	// 0 -10-> 1 -1-> 2; min cut 1. Collapse node 1 into sink: cut 10.
	nw := New(3, 0, 2)
	nw.AddEdge(0, 1, 10)
	nw.AddEdge(1, 2, 1)
	if got := nw.MaxFlow(); got != 1 {
		t.Fatalf("initial MaxFlow = %d, want 1", got)
	}
	nw.CollapseIntoSink([]int{1})
	if got := nw.MaxFlow(); got != 10 {
		t.Fatalf("after collapse MaxFlow = %d, want 10", got)
	}
	side := nw.SourceSide()
	if side[1] {
		t.Error("collapsed node must be on the sink side")
	}
}

func TestIncrementalMatchesFresh(t *testing.T) {
	// Incremental flow after collapse must equal a fresh computation on
	// the contracted network.
	build := func() *Network {
		nw := New(6, 0, 5)
		nw.AddEdge(0, 1, 16)
		nw.AddEdge(0, 2, 13)
		nw.AddEdge(1, 3, 12)
		nw.AddEdge(2, 1, 4)
		nw.AddEdge(2, 4, 14)
		nw.AddEdge(3, 2, 9)
		nw.AddEdge(3, 5, 20)
		nw.AddEdge(4, 3, 7)
		nw.AddEdge(4, 5, 4)
		return nw
	}
	inc := build()
	inc.MaxFlow()
	inc.CollapseIntoSource([]int{1})
	incVal := inc.MaxFlow()

	fresh := build()
	fresh.CollapseIntoSource([]int{1})
	freshVal := fresh.MaxFlow()
	if incVal != freshVal {
		t.Errorf("incremental %d != fresh %d", incVal, freshVal)
	}
}

// bruteMinCut enumerates all cuts of a small network to find the minimum
// cut value (source fixed in S, sink in T).
func bruteMinCut(n, s, t int, edges [][3]int64) int64 {
	best := int64(1) << 62
	for mask := 0; mask < 1<<n; mask++ {
		if mask&(1<<s) == 0 || mask&(1<<t) != 0 {
			continue
		}
		var v int64
		for _, e := range edges {
			if mask&(1<<e[0]) != 0 && mask&(1<<e[1]) == 0 {
				v += e[2]
			}
		}
		if v < best {
			best = v
		}
	}
	return best
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(5) // 4..8 nodes
		s, k := 0, n-1
		var edges [][3]int64
		m := 3 + rng.Intn(2*n)
		for i := 0; i < m; i++ {
			u := rng.Intn(n)
			v := rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, [3]int64{int64(u), int64(v), int64(1 + rng.Intn(10))})
		}
		nw := New(n, s, k)
		for _, e := range edges {
			nw.AddEdge(int(e[0]), int(e[1]), e[2])
		}
		got := nw.MaxFlow()
		want := bruteMinCut(n, s, k, edges)
		if got != want {
			t.Fatalf("trial %d: MaxFlow = %d, brute min cut = %d (edges %v)", trial, got, want, edges)
		}
		// The reported cut must also have the min value.
		side := nw.SourceSide()
		if cv := nw.CutValue(side); cv != want {
			t.Fatalf("trial %d: CutValue(SourceSide) = %d, want %d", trial, cv, want)
		}
	}
}

func TestRandomIncrementalCollapse(t *testing.T) {
	// Randomly collapse nodes one at a time, alternating sides, checking
	// the incremental result against brute force on the contracted graph.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 5 + rng.Intn(3)
		var edges [][3]int64
		m := 4 + rng.Intn(2*n)
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			edges = append(edges, [3]int64{int64(u), int64(v), int64(1 + rng.Intn(9))})
		}
		nw := New(n, 0, n-1)
		for _, e := range edges {
			nw.AddEdge(int(e[0]), int(e[1]), e[2])
		}
		nw.MaxFlow()

		inSource := map[int]bool{0: true}
		inSink := map[int]bool{n - 1: true}
		for step := 0; step < 3; step++ {
			// Pick an unassigned node.
			var candidates []int
			for u := 1; u < n-1; u++ {
				if !inSource[u] && !inSink[u] {
					candidates = append(candidates, u)
				}
			}
			if len(candidates) == 0 {
				break
			}
			u := candidates[rng.Intn(len(candidates))]
			if rng.Intn(2) == 0 {
				inSource[u] = true
				nw.CollapseIntoSource([]int{u})
			} else {
				inSink[u] = true
				nw.CollapseIntoSink([]int{u})
			}
			got := nw.MaxFlow()

			// Brute force on contracted graph: remap nodes.
			remap := make([]int64, n)
			next := int64(2)
			for v := 0; v < n; v++ {
				switch {
				case v == 0 || inSource[v]:
					remap[v] = 0
				case v == n-1 || inSink[v]:
					remap[v] = 1
				default:
					remap[v] = next
					next++
				}
			}
			var cEdges [][3]int64
			for _, e := range edges {
				u2, v2 := remap[e[0]], remap[e[1]]
				if u2 == v2 {
					continue
				}
				cEdges = append(cEdges, [3]int64{u2, v2, e[2]})
			}
			want := bruteMinCut(int(next), 0, 1, cEdges)
			if got != want {
				t.Fatalf("trial %d step %d: incremental = %d, brute = %d", trial, step, got, want)
			}
		}
	}
}

// ekMinCut is the test's reference: Edmonds–Karp on the graph contracted by
// group (0 = source group, 1 = sink group, -1 = free), returning the flow
// value and the canonical source side — the complement of what still reaches
// the sink in the final residual graph — indexed by original node.
func ekMinCut(n int, edges [][3]int64, group []int) (int64, []bool) {
	remap := make([]int, n)
	k := 2
	for v := 0; v < n; v++ {
		if group[v] >= 0 {
			remap[v] = group[v]
		} else {
			remap[v] = k
			k++
		}
	}
	res := make([][]int64, k)
	for i := range res {
		res[i] = make([]int64, k)
	}
	for _, e := range edges {
		if u, v := remap[e[0]], remap[e[1]]; u != v {
			res[u][v] += e[2]
		}
	}
	var value int64
	for {
		// Shortest augmenting path 0 -> 1.
		prev := make([]int, k)
		for i := range prev {
			prev[i] = -1
		}
		prev[0] = 0
		queue := []int{0}
		for len(queue) > 0 && prev[1] < 0 {
			u := queue[0]
			queue = queue[1:]
			for v := 0; v < k; v++ {
				if prev[v] < 0 && res[u][v] > 0 {
					prev[v] = u
					queue = append(queue, v)
				}
			}
		}
		if prev[1] < 0 {
			break
		}
		amt := int64(math.MaxInt64)
		for v := 1; v != 0; v = prev[v] {
			amt = min(amt, res[prev[v]][v])
		}
		for v := 1; v != 0; v = prev[v] {
			res[prev[v]][v] -= amt
			res[v][prev[v]] += amt
		}
		value += amt
	}
	reaches := make([]bool, k)
	reaches[1] = true
	stack := []int{1}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for u := 0; u < k; u++ {
			if !reaches[u] && res[u][v] > 0 {
				reaches[u] = true
				stack = append(stack, u)
			}
		}
	}
	side := make([]bool, n)
	for v := range side {
		side[v] = !reaches[remap[v]]
	}
	return value, side
}

// TestRandomContractionAgainstEdmondsKarp is the proof obligation for
// changing the discharge schedule: on random networks with infinite and
// zero-capacity edges, under random CollapseIntoSource/CollapseIntoSink
// sequences, every MaxFlow must return the reference's value AND the
// reference's source side (the canonical cut, so it cannot depend on the
// schedule); both must be unchanged when the edges are inserted in a
// shuffled order; a warm restart must equal a fresh run on the same
// contraction; and so must a clone refilled by CloneInto over a network an
// earlier contraction and MaxFlow left dirty, in the same storage.
func TestRandomContractionAgainstEdmondsKarp(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	build := func(n int, edges [][3]int64) *Network {
		nw := New(n, 0, n-1)
		for _, e := range edges {
			nw.AddEdge(int(e[0]), int(e[1]), e[2])
		}
		return nw
	}
	for trial := 0; trial < 300; trial++ {
		n := 4 + rng.Intn(9) // 4..12 nodes
		if trial%10 == 0 {
			n = 20 + rng.Intn(21) // and some large enough for labels to spread out
		}
		var edges [][3]int64
		for i, m := 0, 3+rng.Intn(3*n); i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c := int64(1 + rng.Intn(9))
			switch rng.Intn(6) {
			case 0:
				c = Inf
			case 1:
				c = 0
			}
			edges = append(edges, [3]int64{int64(u), int64(v), c})
		}
		shuffled := append([][3]int64(nil), edges...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		group := make([]int, n)
		for v := range group {
			group[v] = -1
		}
		group[0], group[n-1] = 0, 1
		type step struct {
			nodes      []int
			intoSource bool
		}
		var steps []step
		apply := func(nw *Network, s step) {
			if s.intoSource {
				nw.CollapseIntoSource(s.nodes)
			} else {
				nw.CollapseIntoSink(s.nodes)
			}
		}
		check := func(label string, nw *Network, wantValue int64, wantSide []bool) {
			t.Helper()
			if got := nw.MaxFlow(); got != wantValue {
				t.Fatalf("trial %d after %d collapses, %s: MaxFlow = %d, Edmonds–Karp = %d (edges %v, groups %v)", trial, len(steps), label, got, wantValue, edges, group)
			}
			side := nw.SourceSide()
			for v := range side {
				if side[v] != wantSide[v] {
					t.Fatalf("trial %d after %d collapses, %s: SourceSide = %v, canonical = %v (edges %v, groups %v)", trial, len(steps), label, side, wantSide, edges, group)
				}
			}
		}

		warm, warmShuffled := build(n, edges), build(n, shuffled)
		// The skeleton every refill copies, and the network refilled: first
		// dirtied by a contraction of its own and a MaxFlow.
		skeleton := build(n, shuffled)
		dirty := skeleton.Clone()
		dirty.CollapseIntoSink([]int{trial % n})
		dirty.MaxFlow()
		if other := New(n+1, 0, n); skeleton.CloneInto(other) == other {
			t.Fatalf("trial %d: CloneInto refilled a network of another size", trial)
		}
		for {
			wantValue, wantSide := ekMinCut(n, edges, group)
			check("warm", warm, wantValue, wantSide)
			check("warm, shuffled edges", warmShuffled, wantValue, wantSide)
			fresh := build(n, shuffled)
			for _, s := range steps {
				apply(fresh, s)
			}
			check("fresh", fresh, wantValue, wantSide)
			check("clone of warm", warm.Clone(), wantValue, wantSide)
			fresh = skeleton.Clone()
			if refilled := skeleton.CloneInto(dirty); refilled != dirty {
				t.Fatalf("trial %d: CloneInto allocated a network for a same-size destination", trial)
			}
			for _, s := range steps {
				apply(fresh, s)
				apply(dirty, s)
			}
			check("fresh clone", fresh, wantValue, wantSide)
			check("refilled clone", dirty, wantValue, wantSide)
			if fresh.excess[fresh.Sink] != dirty.excess[dirty.Sink] || !slices.Equal(fresh.SourceSide(), dirty.SourceSide()) {
				t.Fatalf("trial %d after %d collapses: the refilled clone differs from a fresh one", trial, len(steps))
			}

			// Next collapse: one to three free nodes (repeats and already
			// contracted nodes included, as the balanced-cut search passes
			// them), all to one side.
			var free []int
			for v, g := range group {
				if g < 0 {
					free = append(free, v)
				}
			}
			if len(free) == 0 || len(steps) == 5 {
				break
			}
			s := step{intoSource: rng.Intn(2) == 0}
			to := 1
			if s.intoSource {
				to = 0
			}
			for i, k := 0, 1+rng.Intn(3); i < k; i++ {
				s.nodes = append(s.nodes, free[rng.Intn(len(free))])
			}
			s.nodes = append(s.nodes, rng.Intn(n)) // maybe a terminal or contracted already: ignored
			for _, v := range s.nodes {
				if group[v] < 0 {
					group[v] = to
				}
			}
			steps = append(steps, s)
			apply(warm, s)
			apply(warmShuffled, s)
		}
	}
}

// TestResetMatchesNew: one network Reset trial after trial to random sizes,
// larger and smaller than the last, must find what a fresh network finds —
// the reference's value and canonical source side under random
// contractions — and list every node's own edges in Incident, whatever the
// storage held before.
func TestResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	reused := New(2, 0, 1)
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(30)
		var edges [][3]int64
		for i, m := 0, 2+rng.Intn(3*n); i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c := int64(rng.Intn(9))
			if rng.Intn(5) == 0 {
				c = Inf
			}
			edges = append(edges, [3]int64{int64(u), int64(v), c})
		}
		reused.Reset(n, 0, n-1)
		for _, e := range edges {
			reused.AddEdge(int(e[0]), int(e[1]), e[2])
		}
		group := make([]int, n)
		for v := range group {
			group[v] = -1
		}
		group[0], group[n-1] = 0, 1
		for u := 1; u < n-1; u++ {
			switch rng.Intn(4) {
			case 0:
				group[u] = 0
				reused.CollapseIntoSource([]int{u})
			case 1:
				group[u] = 1
				reused.CollapseIntoSink([]int{u})
			}
		}
		wantValue, wantSide := ekMinCut(n, edges, group)
		if got := reused.MaxFlow(); got != wantValue {
			t.Fatalf("trial %d: MaxFlow = %d after Reset, reference %d", trial, got, wantValue)
		}
		if side := reused.SourceSide(); !slices.Equal(side, wantSide) {
			t.Fatalf("trial %d: SourceSide = %v after Reset, reference %v", trial, side, wantSide)
		}
		for u := 0; u < n; u++ {
			var want []int
			for e := range 2 * len(edges) {
				if tail, _ := reused.EdgeEnds(e); tail == u {
					want = append(want, e)
				}
			}
			if got := reused.Incident(u); !slices.Equal(got, want) {
				t.Fatalf("trial %d: Incident(%d) = %v, want %v", trial, u, got, want)
			}
		}
	}
}
