// Package maxflow implements the Goldberg–Tarjan push-relabel maximum-flow
// algorithm (STOC 1986) on networks that support node contraction, as
// required by the iterative balanced min-cut heuristic of the pipelining
// transformation (paper section 3.3, adapted from Yang–Wong ICCAD 1994).
//
// Only the first phase of push-relabel runs (a maximum preflow), which is
// sufficient to determine a minimum cut: a node whose label reaches the live
// node count can never push to the sink again and is deactivated. The cut is
// recovered by backward residual reachability from the sink, so it is the
// canonical one (the largest source side of any minimum cut) and depends on
// neither the discharge order nor the order edges were added in.
//
// Every MaxFlow call starts with a global relabel — a backward breadth-first
// search from the sink group that sets each label to the node's exact
// residual distance, and lifts whatever cannot reach the sink to the horizon
// at once — and discharge applies the gap heuristic: when a relabel empties a
// label value, every node above it is cut off from the sink and lifted too.
// Trapped excess therefore never climbs to the horizon one relabel at a time.
//
// Contraction merges nodes into the source or the sink. Nothing ever merges
// into any other node, so the representatives are a flat array (Find is one
// load) and only the two groups keep member lists. After a contraction the
// algorithm restarts incrementally, per the paper, from the previous
// preflow: source out-edges are re-saturated and the next MaxFlow resumes.
// What is carried across a contraction is the preflow, not the labels — the
// global relabel recomputes those, exactly, for the contracted graph.
package maxflow

import (
	"fmt"
	"math"
	"slices"
)

// Inf is the capacity used for uncuttable edges. The divisor fixes the
// headroom: sums over infinite edges (cut values, preflow excess) stay
// below math.MaxInt64 as long as a network holds at most MaxInfEdges of
// them, which AddEdge enforces explicitly rather than by comment.
const Inf int64 = math.MaxInt64 / (1 << 20)

// MaxInfEdges is the largest number of infinite-capacity edges a network
// may hold before capacity sums could overflow int64.
const MaxInfEdges = int(math.MaxInt64 / Inf)

// Network is a flow network over nodes 0..n-1 with a designated source and
// sink. Edges are added in pairs (edge, reverse edge); capacities are fixed
// at creation.
type Network struct {
	n      int
	Source int
	Sink   int

	// Topology, shared by clones: edge -> head node, edge -> capacity, and
	// the incident edge ids of node u (both directions, in edge order) at
	// adj[adjStart[u]:adjStart[u+1]]. ident[u] = u, so that ident[u:u+1] is
	// the member list of a node nothing was merged into. The index is built
	// from head when it is first needed, and again if edges were added since.
	head     []int
	cap      []int64
	adjStart []int
	adj      []int
	ident    []int

	// Preflow state, private to each clone. flow[e] = -flow[e^1]. rep[u] is
	// u itself, Source or Sink. members holds the two groups: the source's
	// nSrc nodes from the front, the sink's nSnk from the back (together
	// they never exceed n). The first saturated source members have had
	// their out-edges saturated; the rest wait for the next MaxFlow. The
	// sink's excess is the net flow into its group: the preflow's value.
	flow      []int64
	rep       []int
	members   []int
	nSrc      int
	nSnk      int
	saturated int
	live      int // number of representative nodes
	excess    []int64

	// infEdges counts edges with capacity >= Inf; AddEdge guards it
	// against MaxInfEdges so capacity sums cannot overflow.
	infEdges int

	// frozen marks a network whose topology is shared with clones; adding
	// edges to it would corrupt the shared adjacency.
	frozen bool

	// Scratch, dead between calls: MaxFlow's labels (the global relabel
	// sets every one), its FIFO of active nodes (first the global relabel's
	// search order), its queued marks (all false once it returns) and its
	// nodes per label; SourceSide's residual walk. CloneInto leaves these as
	// they were.
	height []int
	queue  []int
	inQ    []bool
	count  []int
	reach  []bool
	stack  []int

	// The slabs the per-node slices above are windows of, one per element
	// type, and the adjacency index's, which Reset carves a network of
	// another size out of again.
	ints   []int
	i64s   []int64
	bools  []bool
	idxBuf []int
}

// alloc returns a network of n nodes with its per-clone state and scratch
// carved out of one slab per element type, flow sized for m edges.
func alloc(n, m, source, sink int) *Network {
	nw := &Network{n: n, Source: source, Sink: sink, flow: make([]int64, m)}
	nw.carve(n)
	return nw
}

// carve points the per-node state and scratch at windows of nw's slabs,
// first replacing a slab that is too short for n nodes. Their contents are
// whatever the slabs held.
func (nw *Network) carve(n int) {
	if cap(nw.ints) < 6*n+1 {
		nw.ints = make([]int, 6*n+1)
	}
	if cap(nw.i64s) < n {
		nw.i64s = make([]int64, n)
	}
	if cap(nw.bools) < 2*n {
		nw.bools = make([]bool, 2*n)
	}
	ints, bools := nw.ints[:6*n+1], nw.bools[:2*n]
	nw.excess = nw.i64s[:n:n]
	nw.rep = ints[:n:n]
	nw.height = ints[n : 2*n : 2*n]
	nw.members = ints[2*n : 3*n : 3*n]
	nw.queue = ints[3*n : 3*n : 4*n]
	nw.stack = ints[4*n : 4*n : 5*n]
	nw.count = ints[5*n:]
	nw.inQ = bools[:n:n]
	nw.reach = bools[n:]
}

// New creates a network with n nodes.
func New(n, source, sink int) *Network {
	nw := alloc(n, 0, source, sink)
	nw.init()
	return nw
}

// init makes every node its own representative, the two terminals the
// only members of their groups, with no excess and no node queued.
func (nw *Network) init() {
	n := nw.n
	for i := range nw.rep {
		nw.rep[i] = i
	}
	clear(nw.excess)
	clear(nw.inQ)
	nw.members[0], nw.members[n-1] = nw.Source, nw.Sink
	nw.nSrc, nw.nSnk, nw.saturated, nw.live = 1, 1, 0, n
}

// Reset empties nw into the network New(n, source, sink) would return — no
// edges, nothing contracted, no flow — in the storage nw already holds, so
// a caller that builds one network after another allocates only when one
// outgrows every earlier one. A network whose topology is shared with
// clones cannot be reset.
func (nw *Network) Reset(n, source, sink int) {
	if nw.frozen {
		panic("maxflow: Reset on a frozen (cloned) network")
	}
	nw.n, nw.Source, nw.Sink = n, source, sink
	nw.carve(n)
	nw.init()
	nw.head, nw.cap, nw.flow = nw.head[:0], nw.cap[:0], nw.flow[:0]
	nw.adjStart, nw.adj, nw.ident = nil, nil, nil
	nw.infEdges = 0
}

// Len returns the node count (including contracted nodes).
func (nw *Network) Len() int { return nw.n }

// Freeze permanently disables AddEdge on nw. Call it once, before sharing
// the network across goroutines: from then on the topology is immutable,
// so any number of goroutines may Clone it concurrently without
// synchronization.
func (nw *Network) Freeze() {
	nw.index()
	nw.frozen = true
}

// index brings the incident-edge lists up to date with the edges added.
func (nw *Network) index() {
	if nw.adjStart == nil || len(nw.adj) != len(nw.head) {
		nw.reindex()
	}
}

// reindex builds the incident-edge lists.
func (nw *Network) reindex() {
	n, m := nw.n, len(nw.head)
	// start, next (scratch), ident, adj, in a buffer of the network's own:
	// clones share an index only once it is frozen, and a frozen network
	// is never reindexed.
	if cap(nw.idxBuf) < 3*n+1+m {
		nw.idxBuf = make([]int, 3*n+1+m)
	}
	ints := nw.idxBuf[:3*n+1+m]
	clear(ints[:n+1])
	start, next, ident, adj := ints[:n+1:n+1], ints[n+1:2*n+1], ints[2*n+1:3*n+1:3*n+1], ints[3*n+1:]
	for e := range nw.head {
		start[nw.head[e^1]+1]++ // the tail of e is the head of its pair
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	copy(next, start[:n])
	for e := range nw.head {
		u := nw.head[e^1]
		adj[next[u]] = e
		next[u]++
	}
	for u := range ident {
		ident[u] = u
	}
	nw.adjStart, nw.adj, nw.ident = start, adj, ident
}

// Clone returns an independent network sharing the immutable topology
// (edge endpoints, capacities, adjacency) with nw while carrying its own
// mutable preflow state (flow, contractions, excess). Both networks are
// frozen against AddEdge afterwards, since the shared adjacency could
// otherwise alias. This is how the analysis phase reuses one flow-network
// skeleton across many concurrent cut searches: build the network once,
// Freeze it, Clone it per cut, contract and run the clone. Clone writes to
// nw only if it was not frozen yet — concurrent Clone calls are race-free
// provided the network was frozen (or cloned once) beforehand.
func (nw *Network) Clone() *Network { return nw.CloneInto(nil) }

// CloneInto is Clone into dst's storage: when dst (an earlier clone its
// owner is done with, say) has nw's node and edge counts, its state slabs
// are refilled from nw in place and dst is returned, so a search making
// many cuts of one skeleton allocates its network once. Otherwise — dst nil
// or of another size — it allocates, exactly as Clone. The result is the
// network Clone would return either way; only scratch that is dead between
// calls keeps dst's old contents.
func (nw *Network) CloneInto(dst *Network) *Network {
	if !nw.frozen {
		nw.Freeze()
	}
	cl := dst
	if cl == nil || cl.n != nw.n || len(cl.flow) != len(nw.head) {
		cl = alloc(nw.n, len(nw.head), nw.Source, nw.Sink)
	}
	cl.Source, cl.Sink = nw.Source, nw.Sink
	cl.head, cl.cap, cl.adjStart, cl.adj, cl.ident = nw.head, nw.cap, nw.adjStart, nw.adj, nw.ident
	copy(cl.flow, nw.flow)
	copy(cl.excess, nw.excess)
	copy(cl.rep, nw.rep)
	copy(cl.members, nw.members)
	cl.nSrc, cl.nSnk, cl.saturated, cl.live = nw.nSrc, nw.nSnk, nw.saturated, nw.live
	cl.infEdges, cl.frozen = nw.infEdges, true
	return cl
}

// AddEdge inserts a directed edge u -> v with the given capacity and its
// zero-capacity reverse. It returns the edge id (the reverse is id^1).
// AddEdge panics when the network's topology is frozen (it has been
// cloned) or when adding another infinite edge could overflow capacity
// sums; both are internal invariant violations, not runtime conditions.
func (nw *Network) AddEdge(u, v int, capacity int64) int {
	if nw.frozen {
		panic("maxflow: AddEdge on a frozen (cloned) network")
	}
	if capacity >= Inf {
		nw.infEdges++
		if nw.infEdges > MaxInfEdges {
			panic(fmt.Sprintf("maxflow: %d infinite-capacity edges exceed the overflow headroom (max %d)", nw.infEdges, MaxInfEdges))
		}
	}
	id := len(nw.head)
	nw.head = append(nw.head, v, u)
	nw.cap = append(nw.cap, capacity, 0)
	nw.flow = append(nw.flow, 0, 0)
	return id
}

// Grow makes room for m more edges, so that adding them allocates nothing.
func (nw *Network) Grow(m int) {
	nw.head = slices.Grow(nw.head, 2*m)
	nw.cap = slices.Grow(nw.cap, 2*m)
	nw.flow = slices.Grow(nw.flow, 2*m)
}

// InfEdges returns the number of infinite-capacity edges in the network
// (always <= MaxInfEdges, so capacity sums over them cannot overflow).
func (nw *Network) InfEdges() int { return nw.infEdges }

// ForEachEdge calls fn for every forward edge with its original endpoints.
func (nw *Network) ForEachEdge(fn func(id, tail, head int, capacity int64)) {
	for e := 0; e < len(nw.head); e += 2 {
		fn(e, nw.head[e^1], nw.head[e], nw.cap[e])
	}
}

// Incident returns the ids of the edges, forward and reverse, whose tail is
// node u itself — u's own edges, whatever it was contracted into. The slice
// is the network's adjacency, shared with its clones: read it, never write
// it.
func (nw *Network) Incident(u int) []int {
	nw.index()
	return nw.adj[nw.adjStart[u]:nw.adjStart[u+1]]
}

// ForEachIncident calls fn for every edge id, forward and reverse, whose
// tail was contracted into representative u (u itself included). This is
// the adjacency every clone shares: a caller that needs the neighbours of a
// group, such as the balanced-cut search following infinite edges, reads
// them here instead of building lists of its own.
func (nw *Network) ForEachIncident(u int, fn func(e int)) {
	nw.index()
	for _, m := range nw.group(u) {
		for _, e := range nw.adj[nw.adjStart[m]:nw.adjStart[m+1]] {
			fn(e)
		}
	}
}

// EdgeCap returns the capacity of edge e.
func (nw *Network) EdgeCap(e int) int64 { return nw.cap[e] }

// EdgeEnds returns the tail and head of edge e.
func (nw *Network) EdgeEnds(e int) (tail, head int) { return nw.head[e^1], nw.head[e] }

// Find returns the representative of u after contractions: u itself, the
// source or the sink.
func (nw *Network) Find(u int) int { return nw.rep[u] }

// group returns the nodes representative u stands for.
func (nw *Network) group(u int) []int {
	switch u {
	case nw.Source:
		return nw.members[:nw.nSrc]
	case nw.Sink:
		return nw.members[nw.n-nw.nSnk:]
	}
	return nw.ident[u : u+1]
}

// CollapseIntoSource merges the given nodes into the source. Their out-edges
// are saturated by the next MaxFlow, which resumes from the current preflow.
func (nw *Network) CollapseIntoSource(nodes []int) {
	for _, u := range nodes {
		if nw.rep[u] != u || u == nw.Source || u == nw.Sink {
			continue
		}
		nw.rep[u] = nw.Source
		nw.members[nw.nSrc] = u
		nw.nSrc++
		nw.excess[u] = 0
		nw.live--
	}
}

// CollapseIntoSink merges the given nodes into the sink.
func (nw *Network) CollapseIntoSink(nodes []int) {
	for _, u := range nodes {
		if nw.rep[u] != u || u == nw.Source || u == nw.Sink {
			continue
		}
		nw.rep[u] = nw.Sink
		nw.nSnk++
		nw.members[nw.n-nw.nSnk] = u
		nw.excess[nw.Sink] += nw.excess[u]
		nw.excess[u] = 0
		nw.live--
	}
}

// saturateSource pushes full residual capacity on every edge leaving the
// source group, from the members merged since the last call. Edges
// saturated earlier stay saturated: nothing below the horizon pushes back
// into the source.
func (nw *Network) saturateSource() {
	s := nw.Source
	for _, m := range nw.members[nw.saturated:nw.nSrc] {
		for _, e := range nw.adj[nw.adjStart[m]:nw.adjStart[m+1]] {
			v := nw.rep[nw.head[e]]
			if v == s {
				continue
			}
			if r := nw.cap[e] - nw.flow[e]; r > 0 {
				nw.flow[e] += r
				nw.flow[e^1] -= r
				nw.excess[v] += r
			}
		}
	}
	nw.saturated = nw.nSrc
}

// globalRelabel sets every label to the node's exact distance to the sink
// group in the residual graph, and to the horizon (the live node count) for
// the source and for whatever cannot reach the sink. It leaves the nodes
// per label in count and the search order, sink first, in queue.
func (nw *Network) globalRelabel() {
	s, t, live := nw.Source, nw.Sink, nw.live
	for u := range nw.height {
		nw.height[u] = live
	}
	clear(nw.count)
	nw.height[t] = 0
	queue := append(nw.queue[:0], t)
	for qh := 0; qh < len(queue); qh++ {
		v := queue[qh]
		hu := nw.height[v] + 1
		for _, m := range nw.group(v) {
			// u reaches v when the pair of an edge leaving v has residual.
			for _, e := range nw.adj[nw.adjStart[m]:nw.adjStart[m+1]] {
				u := nw.rep[nw.head[e]]
				if nw.height[u] != live || u == s || nw.cap[e^1]-nw.flow[e^1] <= 0 {
					continue
				}
				nw.height[u] = hu
				nw.count[hu]++
				queue = append(queue, u)
			}
		}
	}
	nw.queue = queue
}

// MaxFlow runs (or incrementally resumes) push-relabel and returns the
// value of the current maximum preflow (= the max-flow value): the net flow
// into the sink group.
func (nw *Network) MaxFlow() int64 {
	nw.index()
	nw.saturateSource()
	nw.globalRelabel()

	// FIFO queue of active nodes (excess > 0, label below the horizon),
	// nearest the sink first: the search order, filtered in place. Every
	// enqueued node is dequeued, clearing its mark, so the marks need no
	// clearing between calls.
	queue := nw.queue[:0]
	for _, u := range nw.queue[1:] {
		if nw.excess[u] > 0 {
			nw.inQ[u] = true
			queue = append(queue, u)
		}
	}
	nw.queue = queue
	for qh := 0; qh < len(nw.queue); qh++ {
		u := nw.queue[qh]
		nw.inQ[u] = false
		nw.discharge(u)
	}
	nw.queue = nw.queue[:0]
	return nw.excess[nw.Sink]
}

// discharge pushes excess out of u until it is exhausted or u rises to the
// horizon (label >= live), at which point u is deactivated: its remaining
// excess can only flow back to the source and is irrelevant to the cut.
func (nw *Network) discharge(u int) {
	s, t, live := nw.Source, nw.Sink, nw.live
	edges := nw.adj[nw.adjStart[u]:nw.adjStart[u+1]]
	for nw.excess[u] > 0 && nw.height[u] < live {
		hu := nw.height[u]
		lowest := live // the lowest residual neighbour a push did not use up
		for _, e := range edges {
			r := nw.cap[e] - nw.flow[e]
			if r <= 0 {
				continue
			}
			v := nw.rep[nw.head[e]]
			if v == u {
				continue
			}
			if hv := nw.height[v]; hu != hv+1 {
				lowest = min(lowest, hv)
				continue
			}
			amt := min(nw.excess[u], r)
			nw.flow[e] += amt
			nw.flow[e^1] -= amt
			nw.excess[u] -= amt
			nw.excess[v] += amt
			if v != s && v != t && !nw.inQ[v] {
				nw.inQ[v] = true
				nw.queue = append(nw.queue, v)
			}
			if nw.excess[u] == 0 {
				return
			}
		}
		// Every admissible edge is saturated: relabel to one above the
		// lowest residual neighbour. If that leaves u's old label empty,
		// nothing above it can reach the sink any more (the gap heuristic).
		nw.count[hu]--
		if nw.count[hu] == 0 {
			nw.liftAbove(hu)
		}
		if nw.height[u] = min(lowest+1, live); nw.height[u] < live {
			nw.count[nw.height[u]]++
		}
	}
}

// liftAbove raises every node labelled above the emptied label h to the
// horizon.
func (nw *Network) liftAbove(h int) {
	for v, hv := range nw.height {
		if hv > h && hv < nw.live {
			nw.count[hv]--
			nw.height[v] = nw.live
		}
	}
}

// SourceSide returns, after MaxFlow, the source side of a minimum cut: the
// complement of the nodes that can still reach the sink in the residual
// graph. Indexed by original node id (contracted members inherit their
// representative's side).
func (nw *Network) SourceSide() []bool {
	clear(nw.reach)
	nw.reach[nw.Sink] = true
	stack := append(nw.stack[:0], nw.Sink)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range nw.group(v) {
			// Walk residual edges BACKWARD: u can reach v if
			// residual(u->v) > 0, and the pair of an edge v -> u is u -> v.
			for _, e := range nw.adj[nw.adjStart[m]:nw.adjStart[m+1]] {
				u := nw.rep[nw.head[e]]
				if !nw.reach[u] && nw.cap[e^1]-nw.flow[e^1] > 0 {
					nw.reach[u] = true
					stack = append(stack, u)
				}
			}
		}
	}
	nw.stack = stack
	out := make([]bool, nw.n)
	for u := range out {
		out[u] = !nw.reach[nw.rep[u]]
	}
	return out
}

// CutValue returns the total capacity of edges crossing from the given
// source side to its complement.
func (nw *Network) CutValue(sourceSide []bool) int64 {
	var v int64
	for e := 0; e < len(nw.head); e += 2 {
		if sourceSide[nw.head[e^1]] && !sourceSide[nw.head[e]] {
			v += nw.cap[e]
		}
	}
	return v
}

// CutEdges returns the forward edge ids crossing the given cut.
func (nw *Network) CutEdges(sourceSide []bool) []int {
	var edges []int
	for e := 0; e < len(nw.head); e += 2 {
		if sourceSide[nw.head[e^1]] && !sourceSide[nw.head[e]] {
			edges = append(edges, e)
		}
	}
	return edges
}
