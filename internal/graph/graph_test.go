package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddEdgeAndQueries(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(0, 3)
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 3) {
		t.Error("missing expected edges from 0")
	}
	if g.HasEdge(1, 0) {
		t.Error("unexpected reverse edge 1->0")
	}
	if got := len(g.Preds(3)); got != 2 {
		t.Errorf("preds(3) = %d, want 2", got)
	}
}

func TestDedup(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	g.Dedup()
	if len(g.Succs(0)) != 1 {
		t.Errorf("after Dedup succs(0) = %v, want one edge", g.Succs(0))
	}
	if len(g.Preds(1)) != 1 {
		t.Errorf("after Dedup preds(1) = %v, want one edge", g.Preds(1))
	}
}

func TestReverse(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	r := g.Reverse()
	if !r.HasEdge(1, 0) || !r.HasEdge(2, 1) {
		t.Error("Reverse missing flipped edges")
	}
	if r.HasEdge(0, 1) {
		t.Error("Reverse kept a forward edge")
	}
}

func TestReachableFrom(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4) // disconnected from 0
	seen := g.ReachableFrom(0)
	want := []bool{true, true, true, false, false}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("reachable[%d] = %v, want %v", i, seen[i], want[i])
		}
	}
}

func TestTopoOrder(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	order, ok := g.Topo()
	if !ok {
		t.Fatal("Topo reported a cycle on a DAG")
	}
	pos := make([]int, 4)
	for i, u := range order {
		pos[u] = i
	}
	for u := 0; u < 4; u++ {
		for _, v := range g.Succs(u) {
			if pos[u] >= pos[v] {
				t.Errorf("topo order violates edge %d->%d", u, v)
			}
		}
	}
}

func TestTopoDetectsCycle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	if _, ok := g.Topo(); ok {
		t.Error("Topo did not detect a cycle")
	}
}

func TestSCCSimpleCycle(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1) // {1,2} is an SCC
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	r := SCC(g)
	if r.NumComps() != 4 {
		t.Fatalf("NumComps = %d, want 4", r.NumComps())
	}
	if r.Comp[1] != r.Comp[2] {
		t.Error("nodes 1 and 2 should share a component")
	}
	if r.Comp[0] == r.Comp[1] || r.Comp[3] == r.Comp[1] {
		t.Error("nodes 0/3 wrongly merged into the cycle component")
	}
}

func TestSCCSelfLoop(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	r := SCC(g)
	if r.NumComps() != 2 {
		t.Fatalf("NumComps = %d, want 2", r.NumComps())
	}
	if len(r.Members[r.Comp[0]]) != 1 {
		t.Error("self-loop node should still be a singleton component")
	}
}

func TestSCCWholeGraphCycle(t *testing.T) {
	n := 50
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	r := SCC(g)
	if r.NumComps() != 1 {
		t.Fatalf("NumComps = %d, want 1", r.NumComps())
	}
	if len(r.Members[0]) != n {
		t.Errorf("component size = %d, want %d", len(r.Members[0]), n)
	}
}

func TestCondenseIsDAG(t *testing.T) {
	g := New(6)
	// Two cycles joined by a bridge.
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 2)
	g.AddEdge(4, 5)
	r := SCC(g)
	c := Condense(g, r)
	if _, ok := c.Topo(); !ok {
		t.Error("condensation is not acyclic")
	}
	if c.Len() != r.NumComps() {
		t.Errorf("condensation has %d nodes, want %d", c.Len(), r.NumComps())
	}
}

// randomDigraph builds a pseudo-random digraph from a seed for property tests.
func randomDigraph(seed int64, maxN int) *Digraph {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(maxN-1)
	g := New(n)
	edges := rng.Intn(3 * n)
	for i := 0; i < edges; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

func TestSCCPropertyPartition(t *testing.T) {
	// Every node belongs to exactly one component and components partition
	// the node set.
	f := func(seed int64) bool {
		g := randomDigraph(seed, 40)
		r := SCC(g)
		count := 0
		for _, m := range r.Members {
			count += len(m)
			for _, u := range m {
				if r.Comp[u] != indexOf(r.Members, u) {
					return false
				}
			}
		}
		return count == g.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func indexOf(members [][]int, u int) int {
	for c, m := range members {
		for _, v := range m {
			if v == u {
				return c
			}
		}
	}
	return -1
}

func TestSCCPropertyCondensationAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDigraph(seed, 40)
		r := SCC(g)
		_, ok := Condense(g, r).Topo()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDominatorsDiamond(t *testing.T) {
	//   0
	//  / \
	// 1   2
	//  \ /
	//   3
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	d := Dominators(g, 0)
	if d.Idom[3] != 0 {
		t.Errorf("idom(3) = %d, want 0", d.Idom[3])
	}
	if d.Idom[1] != 0 || d.Idom[2] != 0 {
		t.Error("idom of branch arms should be the root")
	}
	if !d.Dominates(0, 3) || d.Dominates(1, 3) {
		t.Error("Dominates answers wrong for diamond")
	}
}

func TestDominatorsLoop(t *testing.T) {
	// 0 -> 1 -> 2 -> 1, 2 -> 3
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	g.AddEdge(2, 3)
	d := Dominators(g, 0)
	if d.Idom[1] != 0 || d.Idom[2] != 1 || d.Idom[3] != 2 {
		t.Errorf("idoms = %v, want [_, 0, 1, 2]", d.Idom)
	}
}

func TestDominatorsUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	// node 2 unreachable
	d := Dominators(g, 0)
	if d.Idom[2] != -1 {
		t.Errorf("idom of unreachable node = %d, want -1", d.Idom[2])
	}
	if d.Dominates(0, 2) {
		t.Error("root should not dominate an unreachable node")
	}
}

func TestPostDominators(t *testing.T) {
	//   0
	//  / \
	// 1   2
	//  \ /
	//   3
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	pd := Dominators(g.Reverse(), 3)
	if pd.Idom[0] != 3 {
		t.Errorf("ipdom(0) = %d, want 3", pd.Idom[0])
	}
	if !pd.Dominates(3, 1) {
		t.Error("exit should post-dominate arm")
	}
}

func TestDominanceFrontierDiamond(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	d := Dominators(g, 0)
	df := d.Frontier(g)
	if len(df[1]) != 1 || df[1][0] != 3 {
		t.Errorf("DF(1) = %v, want [3]", df[1])
	}
	if len(df[2]) != 1 || df[2][0] != 3 {
		t.Errorf("DF(2) = %v, want [3]", df[2])
	}
	if len(df[0]) != 0 {
		t.Errorf("DF(0) = %v, want empty", df[0])
	}
}

func TestDominanceFrontierLoop(t *testing.T) {
	// 0 -> 1(header) -> 2(body) -> 1, 1 -> 3(exit)
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	g.AddEdge(1, 3)
	d := Dominators(g, 0)
	df := d.Frontier(g)
	// The loop body's frontier includes the header (back edge join).
	found := false
	for _, b := range df[2] {
		if b == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("DF(2) = %v, want to contain header 1", df[2])
	}
}

func TestDominatorsPropertyIdomDominates(t *testing.T) {
	// idom(b) strictly dominates b for all reachable b != root.
	f := func(seed int64) bool {
		g := randomDigraph(seed, 30)
		d := Dominators(g, 0)
		reach := g.ReachableFrom(0)
		for b := 1; b < g.Len(); b++ {
			if !reach[b] {
				continue
			}
			if d.Idom[b] < 0 {
				return false
			}
			if !d.Dominates(d.Idom[b], b) {
				return false
			}
			if d.Idom[b] == b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
