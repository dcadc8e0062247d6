// Package graph provides the directed-graph algorithms used throughout the
// pipelining compiler: strongly connected components (Tarjan), topological
// ordering, reachability, and dominator/post-dominator trees
// (Cooper–Harvey–Kennedy).
//
// Graphs are represented positionally: nodes are the integers 0..N-1 and the
// caller supplies successor lists. This keeps the package independent of the
// IR and lets the same routines serve the CFG, the summarized CFG, and the
// dependence graph.
package graph

// Digraph is a directed graph over nodes 0..N-1.
type Digraph struct {
	succs [][]int
	preds [][]int
	// Storage Reset rebuilds in: the lists, their slab, and the degrees
	// (which Dedup reuses for its marks).
	adj  [][]int
	slab []int
	buf  []int
}

// New returns an empty digraph with n nodes and no edges.
func New(n int) *Digraph {
	adj := make([][]int, 2*n)
	return &Digraph{succs: adj[:n:n], preds: adj[n:]}
}

// Build returns the digraph over n nodes with the edges edges reports, in
// the order it reports them. It calls edges twice: once to count each
// node's edges, then to add them to lists carved from one allocation.
func Build(n int, edges func(add func(u, v int))) *Digraph {
	g := new(Digraph)
	g.Reset(n, edges)
	g.buf = nil
	return g
}

// Reset makes g the digraph Build(n, edges) returns, in the storage of g's
// earlier Resets: a graph rebuilt for many inputs allocates only when one
// outgrows it.
func (g *Digraph) Reset(n int, edges func(add func(u, v int))) {
	deg := grow(&g.buf, 2*n) // out-degrees, then in-degrees
	clear(deg)
	edges(func(u, v int) { deg[u]++; deg[n+v]++ })
	adj := grow(&g.adj, 2*n)
	g.succs, g.preds = adj[:n:n], adj[n:]
	m := 0
	for _, d := range deg {
		m += d
	}
	slab := grow(&g.slab, m)
	for side, adj := range [][][]int{g.succs, g.preds} {
		for v := range adj {
			d := deg[side*n+v]
			adj[v], slab = slab[:0:d], slab[d:]
		}
	}
	edges(g.AddEdge)
}

// grow returns (*buf)[:n], first replacing *buf if it is shorter.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// Len returns the number of nodes.
func (g *Digraph) Len() int { return len(g.succs) }

// AddEdge inserts the edge u -> v. Duplicate edges are kept; callers that
// care about multiplicity may deduplicate with Dedup.
func (g *Digraph) AddEdge(u, v int) {
	g.succs[u] = append(g.succs[u], v)
	g.preds[v] = append(g.preds[v], u)
}

// Succs returns the successor list of u. The returned slice must not be
// modified.
func (g *Digraph) Succs(u int) []int { return g.succs[u] }

// Preds returns the predecessor list of u. The returned slice must not be
// modified.
func (g *Digraph) Preds(u int) []int { return g.preds[u] }

// HasEdge reports whether the edge u -> v is present.
func (g *Digraph) HasEdge(u, v int) bool {
	for _, w := range g.succs[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Dedup removes duplicate parallel edges in place, keeping each list's
// first occurrences in order.
func (g *Digraph) Dedup() {
	// mark[v] == stamp: v is in the list at hand. A graph from Reset lends
	// its degree storage; any other makes a temporary, so a graph never
	// keeps more than its edges.
	mark := g.buf
	if cap(mark) < g.Len() {
		mark = make([]int, g.Len())
	}
	mark = mark[:g.Len()]
	clear(mark)
	stamp := 0
	for _, adj := range [][][]int{g.succs, g.preds} {
		for u, list := range adj {
			stamp++
			out := list[:0]
			for _, v := range list {
				if mark[v] != stamp {
					mark[v] = stamp
					out = append(out, v)
				}
			}
			adj[u] = out
		}
	}
}

// Reverse returns a new digraph with every edge direction flipped.
func (g *Digraph) Reverse() *Digraph {
	return Build(g.Len(), func(add func(u, v int)) {
		for u := range g.succs {
			for _, v := range g.succs[u] {
				add(v, u)
			}
		}
	})
}

// ReachableFrom returns the set of nodes reachable from start (including
// start itself) as a boolean slice.
func (g *Digraph) ReachableFrom(start int) []bool {
	seen := make([]bool, g.Len())
	stack := []int{start}
	seen[start] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.succs[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// Reach returns reach[u][v]: a path of at least one edge leads from u to v
// (so u reaches itself only around a cycle). The rows share one allocation.
func (g *Digraph) Reach() [][]bool {
	n := g.Len()
	cells := make([]bool, n*n)
	rows := make([][]bool, n)
	var stack []int
	for u := range rows {
		r := cells[u*n : (u+1)*n : (u+1)*n]
		for stack = append(stack[:0], u); len(stack) > 0; {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.succs[w] {
				if !r[v] {
					r[v] = true
					stack = append(stack, v)
				}
			}
		}
		rows[u] = r
	}
	return rows
}

// Topo returns a topological order of the graph's nodes (sources first).
// The graph must be acyclic; Topo returns ok=false if a cycle exists.
func (g *Digraph) Topo() (order []int, ok bool) {
	var buf []int
	return g.TopoInto(&buf)
}

// TopoInto is Topo in *buf's storage, which it grows to twice the node
// count when shorter; order is a window of it.
func (g *Digraph) TopoInto(buf *[]int) (order []int, ok bool) {
	n := g.Len()
	indeg := grow(buf, 2*n)[:n]
	clear(indeg)
	for u := 0; u < n; u++ {
		for _, v := range g.succs[u] {
			indeg[v]++
		}
	}
	// Kahn's queue: what it has held, in order, is the order.
	order = (*buf)[n:n]
	for u := 0; u < n; u++ {
		if indeg[u] == 0 {
			order = append(order, u)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, v := range g.succs[order[head]] {
			indeg[v]--
			if indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	return order, len(order) == n
}
