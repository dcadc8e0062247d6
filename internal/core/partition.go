package core

import (
	"container/heap"
	"fmt"

	"repro/internal/balance"
	"repro/internal/costmodel"
	"repro/internal/dep"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/maxflow"
	"repro/internal/ssa"
)

// TxMode selects how the live set is transmitted between stages.
type TxMode int

const (
	// TxPacked is the paper's unified transmission with interference-based
	// packing: objects that are never simultaneously live across the cut
	// share a transmission slot (figures 12-16). Beyond the paper, control
	// objects whose non-default decisions never both occur on one path
	// share one too (shareCodes).
	TxPacked TxMode = iota
	// TxNaiveUnified transmits every live object in its own slot
	// (figure 11).
	TxNaiveUnified
	// TxNaiveInterference packs with the naive interference relation
	// (concatenated CFGs without excluding impossible paths, figure 13):
	// every pair of objects live in overlapping regions interferes. We
	// model it conservatively as the complete interference relation
	// restricted to objects whose def can reach a common use region; in
	// practice it packs strictly worse than TxPacked.
	TxNaiveInterference
)

// String returns the mode's short name as used in tables and flags.
func (m TxMode) String() string {
	switch m {
	case TxPacked:
		return "packed"
	case TxNaiveUnified:
		return "naive-unified"
	case TxNaiveInterference:
		return "naive-interference"
	}
	return "?"
}

// Options configures Partition.
type Options struct {
	// Stages is the pipelining degree D (>= 1).
	Stages int
	// Epsilon is the balance variance ε of the paper (default 1/16).
	Epsilon float64
	// Arch is the cost model (default costmodel.Default()).
	Arch *costmodel.Arch
	// Channel is the inter-stage ring kind (default NNRing).
	Channel costmodel.ChannelKind
	// Tx selects the transmission strategy (default TxPacked).
	Tx TxMode
}

// MaxStages bounds the accepted pipelining degree; the IXP2800 has 16
// microengines, and beyond that the balanced-cut bands collapse anyway.
const MaxStages = 64

// Validate rejects out-of-range options as errs.ErrBadOption, naming the
// field and the value. A zero Stages or Epsilon still means "use the
// default" (filled in by withDefaults); only actively wrong values fail.
// It is the one place these ranges are written: Partition runs it, and the
// repro facade runs it on the Options its options lower to.
func (o *Options) Validate() error {
	if o.Stages < 0 || o.Stages > MaxStages {
		return fmt.Errorf("core: %w: Stages %d (want 1..%d)", errs.ErrBadOption, o.Stages, MaxStages)
	}
	if o.Epsilon < 0 || o.Epsilon > 1 {
		return fmt.Errorf("core: %w: Epsilon %g (want (0, 1])", errs.ErrBadOption, o.Epsilon)
	}
	return nil
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.Stages <= 0 {
		opts.Stages = 1
	}
	if opts.Epsilon <= 0 {
		opts.Epsilon = 1.0 / 16.0
	}
	if opts.Arch == nil {
		opts.Arch = costmodel.Default()
	}
	return opts
}

// partitionState carries everything one candidate realization needs. It is
// private to a single Partition call; everything shared between candidates
// lives (immutably) on the Analysis.
type partitionState struct {
	opts Options
	a    *Analysis
	an   *dep.Analysis
	// stageOf[unitID] is the 1-based stage assignment.
	stageOf []int
	// cutInfos[j] describes cut j+1 (between stage j+1 and j+2).
	cuts []*cutInfo
	// coded[b]: branch unit b's control object is coded (shareCodes).
	coded []bool
	ws    *workspace
}

// workspace is the scratch one Partition or Coarsen call reuses from cut to
// cut and from stage to stage: the contracted network each cut search
// builds (window) with its pins, node map and weights, the search's marks,
// packCut's per-object block sets and interference graph, and the arrays
// of the cleanup passes and stage costing. A call takes one from its
// Analysis's pool and puts it back when it returns, so concurrent calls
// never share one, and nothing a call returns points into it. Every use
// overwrites what it reads: no content carries from one call, cut or stage
// to the next. terms holds planTerms' plan; regs, words, coal and copies
// serve coalesceCopies and renumberRegs, and names the phi temporaries
// ssa.Destruct names before them.
type workspace struct {
	nw     *maxflow.Network
	pins   []int8
	win    []int
	free   []int
	winW   []int64
	search []int64
	pos    []pos
	reach  []reach
	sets   []uint64
	comps  []compCost
	ints   []int
	bools  []bool
	regs   []int32
	words  []uint64
	coal   []int32
	copies []*ir.Instr
	terms  []stageTerm
	names  map[int]string
}

// scratch returns (*buf)[:n] zeroed, first replacing *buf if it is shorter.
func scratch[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	s := (*buf)[:n]
	clear(s)
	return s
}

// ctrlClosure returns the transitive control dependents of branch unit u:
// everything directly control-dependent on u plus everything dependent on
// branches inside u's region. A stage containing any of these needs u's
// control object to navigate its cloned control flow. The closures are
// precomputed by Analyze (they are degree-independent).
func (st *partitionState) ctrlClosure(u int) []int {
	return st.a.closures[u]
}

// netModel is the flow-network model of one program, built once per
// analysis and only read afterwards: each cut search builds the part of it
// the cut leaves free (window). The weights are indexed by node.
type netModel struct {
	nw     *maxflow.Network
	weight []int64
	nc     int
	nNodes int
}

// compNode returns the node of component c. The source and the sink are
// nodes 0 and 1; the components follow, then the object nodes.
func (net *netModel) compNode(c int) int { return 2 + c }

// buildNetwork constructs the flow network of paper step 1.6 over the
// dependence-graph components: program (component) nodes carry the balance
// weight; each externally used SSA value contributes a variable node whose
// single definition edge carries VCost; each branch unit with external
// control dependents contributes a control node whose definition edge
// carries CCost; use edges are infinite; and reverse-infinite edges enforce
// that no dependence flows from the sink side to the source side.
//
// The network is built exactly once per analysis and contracted per cut.
// What must be deterministic is the node numbering: variable nodes are
// assigned in register order and control nodes in branch-unit order, never
// in map-iteration order, because node ids are order-sensitive downstream —
// balance's frontierCandidates breaks its last tie by id, and the numbering
// is what the reports' values/ctrls counts are read off. The order edges are
// added in is not: among equal-cost minimum cuts maxflow always returns the
// canonical one, whatever order it met or discharged the edges in
// (TestRandomContractionAgainstEdmondsKarp).
func buildNetwork(an *dep.Analysis, scc *graph.SCCResult, cg *graph.Digraph, compWeight []int64, arch *costmodel.Arch) *netModel {
	nc := len(compWeight)
	const src, snk = 0, 1
	compNode := func(c int) int { return 2 + c }
	crosses := func(def int, uses []int) bool {
		for _, use := range uses {
			if scc.Comp[use] != scc.Comp[def] {
				return true
			}
		}
		return false
	}
	// Object nodes follow the component nodes: extVars[i] is node 2+nc+i,
	// extBranches[j] node 2+nc+len(extVars)+j.
	var extVars, extBranches []int
	for r, def := range an.DataDef {
		if def >= 0 && crosses(def, an.DataUses[r]) {
			extVars = append(extVars, r)
		}
	}
	for b, deps := range an.Ctrl {
		if crosses(b, deps) {
			extBranches = append(extBranches, b)
		}
	}
	nNodes := 2 + nc + len(extVars) + len(extBranches)

	// mark[x] == stamp: node (or component) x is already wired to the object
	// (or tail component) at hand.
	mark := make([]int, nNodes)
	stamp := 0
	// Ordering dependences cost nothing to cut but must stay directed; two
	// components get one edge, from their first Order entry, which the stamp
	// finds with the entries grouped (counting sort, stable) by tail.
	tail := func(i int) int { return scc.Comp[an.Order[i][0]] }
	next := make([]int, nc+1)
	for i := range an.Order {
		next[tail(i)+1]++
	}
	for c := 0; c < nc; c++ {
		next[c+1] += next[c]
	}
	byTail, firstOrder := make([]int, len(an.Order)), make([]bool, len(an.Order))
	for i := range an.Order {
		byTail[next[tail(i)]] = i
		next[tail(i)]++
	}
	for k, i := range byTail {
		if k == 0 || tail(i) != tail(byTail[k-1]) {
			stamp++
		}
		if b := scc.Comp[an.Order[i][1]]; b != tail(i) && mark[b] != stamp {
			mark[b], firstOrder[i] = stamp, true
		}
	}

	object := func(add func(u, v int, c int64), on, d int, cost int64, users []int) {
		stamp++
		add(d, on, cost)
		add(on, d, maxflow.Inf)
		for _, use := range users {
			if uc := compNode(scc.Comp[use]); uc != d && mark[uc] != stamp {
				mark[uc] = stamp
				add(on, uc, maxflow.Inf)
				add(uc, d, maxflow.Inf)
			}
		}
	}
	edges := func(add func(u, v int, c int64)) {
		for i, r := range extVars {
			object(add, 2+nc+i, compNode(scc.Comp[an.DataDef[r]]), arch.VCost, an.DataUses[r])
		}
		for j, b := range extBranches {
			object(add, 2+nc+len(extVars)+j, compNode(scc.Comp[b]), arch.CCost, an.Ctrl[b])
		}
		for i, o := range an.Order {
			if firstOrder[i] {
				add(compNode(scc.Comp[o[1]]), compNode(scc.Comp[o[0]]), maxflow.Inf)
			}
		}
		// Anchor edges (paper step 1.6.1): zero-cost edges from the source
		// to entry components and from terminal components to the sink.
		// They give the balanced-cut search frontier candidates even before
		// any component is pinned; cutting them transmits nothing.
		for c := 0; c < nc; c++ {
			if len(cg.Preds(c)) == 0 {
				add(src, compNode(c), 0)
			}
			if len(cg.Succs(c)) == 0 {
				add(compNode(c), snk, 0)
			}
		}
	}
	// Count the edges, then add them into storage allocated once.
	m := 0
	edges(func(int, int, int64) { m++ })
	nw := maxflow.New(nNodes, src, snk)
	nw.Grow(m)
	edges(func(u, v int, c int64) { nw.AddEdge(u, v, c) })

	weight := make([]int64, nNodes)
	for c := 0; c < nc; c++ {
		weight[compNode(c)] = compWeight[c]
	}
	// Freeze the finished skeleton: it is about to be read by every cut
	// search of every concurrent Partition call, and reading the adjacency
	// of a frozen network is write-free.
	nw.Freeze()
	return &netModel{nw: nw, weight: weight, nc: nc, nNodes: nNodes}
}

// compDAG condenses the unit dependence graph to components.
func compDAG(an *dep.Analysis, scc *graph.SCCResult) *graph.Digraph {
	cg := graph.Build(scc.NumComps(), func(add func(u, v int)) {
		an.Deps(func(u, v int) {
			if a, b := scc.Comp[u], scc.Comp[v]; a != b {
				add(a, b)
			}
		})
	})
	cg.Dedup()
	return cg
}

// topoByProgramOrder returns a deterministic topological order of the
// component DAG, preferring components whose earliest unit appears first in
// the program (Kahn's algorithm with a program-position priority). Program
// order keeps mutually exclusive regions contiguous, which keeps the live
// sets crossing each cut small (interleaving parallel arms was measured to
// double transmission cost for no balance gain).
func topoByProgramOrder(cg *graph.Digraph, scc *graph.SCCResult) []int {
	nc := cg.Len()
	key := make([]int, nc)
	for c := 0; c < nc; c++ {
		key[c] = 1 << 30
		for _, u := range scc.Members[c] {
			if u < key[c] {
				key[c] = u
			}
		}
	}
	indeg := make([]int, nc)
	for u := 0; u < nc; u++ {
		for _, v := range cg.Succs(u) {
			indeg[v]++
		}
	}
	// Available components, earliest program position first. Keys are
	// distinct (a unit belongs to one component), so the order is total.
	avail := &compHeap{key: key}
	for c := 0; c < nc; c++ {
		if indeg[c] == 0 {
			avail.comps = append(avail.comps, c)
		}
	}
	heap.Init(avail)
	order := make([]int, 0, nc)
	// Pop and push in place: heap.Pop and heap.Push would box every int.
	for n := avail.Len(); n > 0; n = avail.Len() { // stops short only on a cycle, which a condensation has none of
		best := avail.comps[0]
		avail.comps[0] = avail.comps[n-1]
		avail.comps = avail.comps[:n-1]
		heap.Fix(avail, 0)
		order = append(order, best)
		for _, v := range cg.Succs(best) {
			indeg[v]--
			if indeg[v] == 0 {
				avail.comps = append(avail.comps, v)
				heap.Fix(avail, len(avail.comps)-1)
			}
		}
	}
	return order
}

// compHeap is a min-heap of components by key.
type compHeap struct {
	comps []int
	key   []int
}

func (h *compHeap) Len() int           { return len(h.comps) }
func (h *compHeap) Less(i, j int) bool { return h.key[h.comps[i]] < h.key[h.comps[j]] }
func (h *compHeap) Swap(i, j int)      { h.comps[i], h.comps[j] = h.comps[j], h.comps[i] }
func (h *compHeap) Push(c any)         { h.comps = append(h.comps, c.(int)) }
func (h *compHeap) Pop() any {
	c := h.comps[len(h.comps)-1]
	h.comps = h.comps[:len(h.comps)-1]
	return c
}

// A component's pin at one cut: free, contracted into the source, or into
// the sink.
const (
	pinFree int8 = iota
	pinSrc
	pinSnk
)

// assignStages runs the D-1 successive balanced min cuts (paper sections
// 3.2-3.3) over the precomputed dependence structure, returning the
// per-unit stage assignment. Each cut pins the previously assigned stages
// and a topological prefix of the remaining components to the source and a
// topological suffix to the sink (pinCut), and the balanced min-cut
// heuristic refines the boundary on the network those pins leave free
// (window).
func (a *Analysis) assignStages(opts Options, ws *workspace) ([]int, []*balance.Result, error) {
	units := a.an.Units
	scc := a.scc
	nc := scc.NumComps()

	D := opts.Stages
	stageOfComp := make([]int, nc)
	for c := range stageOfComp {
		stageOfComp[c] = D
	}
	assigned := make([]bool, nc)
	results := make([]*balance.Result, 0, D-1)
	var collapsedW int64
	pin := scratch(&ws.pins, nc)
	nn := a.net.nNodes
	sides := make([]bool, (D-1)*nn) // the cuts' source sides

	for i := 1; i < D; i++ {
		lo, hi := a.cutBand(i, D, opts.Epsilon, collapsedW)
		a.pinCut(pin, assigned, lo, hi)
		res := a.net.minCut(ws, pin, lo, hi, collapsedW, sides[(i-1)*nn:i*nn:i*nn])
		if res.Cost >= maxflow.Inf/2 {
			return nil, nil, fmt.Errorf("cut %d: %w at degree %d (cost %d)", i, errs.ErrUnbalanced, D, res.Cost)
		}
		results = append(results, res)

		for c := 0; c < nc; c++ {
			if !assigned[c] && res.SourceSide[a.net.compNode(c)] {
				stageOfComp[c] = i
				assigned[c] = true
				collapsedW += a.compWeight[c]
			}
		}
	}

	stageOf := make([]int, len(units))
	for _, u := range units {
		stageOf[u.ID] = stageOfComp[scc.Comp[u.ID]]
	}

	// Defensive validation: no dependence may flow backward.
	for u := 0; u < len(units); u++ {
		for _, v := range a.ug.Succs(u) {
			if scc.Comp[u] != scc.Comp[v] && stageOf[u] > stageOf[v] {
				return nil, nil, fmt.Errorf("internal error: dependence %d->%d crosses backward (stage %d -> %d)", u, v, stageOf[u], stageOf[v])
			}
		}
	}
	return stageOf, results, nil
}

// cutBand returns the band [lo, hi] cut i of D must put upstream, given the
// weight collapsedW earlier cuts already did: an equal share of the rest,
// give or take ε of it.
func (a *Analysis) cutBand(i, D int, eps float64, collapsedW int64) (lo, hi int64) {
	slice := (a.totalWeight - collapsedW) / int64(D-i+1)
	tol := int64(eps * float64(slice))
	return collapsedW + slice - tol, collapsedW + slice + tol
}

// pinCut pins, for a cut with band [lo, hi], the assigned components and a
// topological prefix of the rest to the source and a topological suffix to
// the sink, so the min cut has real flow to work against; the rest stay
// free. The source pins are closed under dependence predecessors and the
// sink pins, a suffix of a topological order, under successors.
func (a *Analysis) pinCut(pin []int8, assigned []bool, lo, hi int64) {
	pinnedW := int64(0)
	for c, done := range assigned {
		pin[c] = pinFree
		if done {
			pin[c] = pinSrc
			pinnedW += a.compWeight[c]
		}
	}
	// Pins are irreversible (contraction), so never overshoot the band:
	// stop as soon as the next component would push past it and leave the
	// boundary to the min cut.
	for _, c := range a.topo {
		if pinnedW >= lo || pinnedW+a.compWeight[c] > hi {
			break
		}
		if pin[c] != pinSrc {
			pin[c] = pinSrc
			pinnedW += a.compWeight[c]
		}
	}
	sinkW := int64(0)
	for k := len(a.topo) - 1; k >= 0; k-- {
		c := a.topo[k]
		if sinkW >= a.totalWeight-hi || sinkW+a.compWeight[c] > a.totalWeight-lo {
			break
		}
		if pin[c] == pinSrc {
			break // seeds met in the middle; leave the rest free
		}
		pin[c] = pinSnk
		sinkW += a.compWeight[c]
	}
}

// minCut runs the balanced min-cut search of one cut on its window and
// returns its result with SourceSide indexed by skeleton node: side, which
// it fills.
func (net *netModel) minCut(ws *workspace, pin []int8, lo, hi, collapsedW int64, side []bool) *balance.Result {
	nw, weight, id := net.window(ws, pin)
	ws.search = scratch(&ws.search, 2*nw.Len())
	res := balance.MinCut(nw, weight, lo, hi, collapsedW, ws.search)
	for u, k := range id {
		side[u] = res.SourceSide[k]
	}
	res.SourceSide = side
	return res
}

// window builds, in ws's network, the flow network of a cut with the given
// component pins, contracted to what the pins leave free:
//
//   - the source and the sink are nodes 0 and 1, and the pinned components
//     fold into them;
//   - an object node folds into a side when all its components (its
//     definition's and its users') lie pinned on that side; one defined
//     upstream and used only in pinned components, some downstream, folds
//     into the sink, where its infinite edges to its users put it in every
//     finite cut;
//   - every other node is free, numbered from 2 in skeleton order, so the
//     search's tie-breaks by node id do not change;
//   - the edges between the source and sink groups become one source-sink
//     edge of their summed capacity, so a cut's cost keeps its value (its
//     definition edge, for such an object; the zero anchors otherwise — the
//     skeleton's edges between components run from a later to an earlier
//     one, so none runs from the source pins to the sink pins);
//   - the source weighs what folded into it.
//
// Folding changes no cut the search meets: max-flow returns the canonical
// minimum cut, the largest source side, which puts a folded node on its
// side whatever else it does, and the search moves only free nodes. It
// returns the network, its weights and id, where id[u] is skeleton node u's
// node in it.
func (net *netModel) window(ws *workspace, pin []int8) (*maxflow.Network, []int64, []int) {
	const s, t = 0, 1
	sk := net.nw
	id := scratch(&ws.win, net.nNodes)
	free := ws.free[:0] // the free nodes, in order
	var srcW, snkW, across int64
	id[0], id[1] = s, t
	for c, p := range pin {
		u := net.compNode(c)
		switch p {
		case pinSrc:
			id[u] = s
			srcW += net.weight[u]
		case pinSnk:
			id[u] = t
			snkW += net.weight[u]
		default:
			id[u] = 2 + len(free)
			free = append(free, u)
		}
	}
	for u := 2 + net.nc; u < net.nNodes; u++ {
		// An object node's forward edges run to its components.
		var sides int8 // bit 0: a source pin, 1: a sink pin, 2: a free one
		for _, e := range sk.Incident(u) {
			if e&1 == 0 {
				_, h := sk.EdgeEnds(e)
				sides |= 1 << min(id[h], 2)
			}
		}
		switch sides {
		case 1:
			id[u] = s
			srcW += net.weight[u]
		case 2:
			id[u] = t
			snkW += net.weight[u]
		case 3: // its definition edge runs from the source group
			id[u] = t
			snkW += net.weight[u]
			for _, e := range sk.Incident(u) {
				if _, tail := sk.EdgeEnds(e); e&1 == 1 && id[tail] == s {
					across += sk.EdgeCap(e ^ 1)
				}
			}
		default:
			id[u] = 2 + len(free)
			free = append(free, u)
		}
	}
	ws.free = free
	// The anchors between the two groups.
	for _, e := range sk.Incident(0) {
		if _, h := sk.EdgeEnds(e); e&1 == 0 && id[h] == t {
			across += sk.EdgeCap(e)
		}
	}
	for _, e := range sk.Incident(1) {
		if _, tail := sk.EdgeEnds(e); e&1 == 1 && id[tail] == s {
			across += sk.EdgeCap(e ^ 1)
		}
	}

	n := 2 + len(free)
	weight := scratch(&ws.winW, n)
	weight[s], weight[t] = srcW, snkW
	m := 1
	for k, u := range free {
		weight[2+k] = net.weight[u]
		m += len(sk.Incident(u))
	}
	if ws.nw == nil {
		ws.nw = maxflow.New(n, s, t)
	} else {
		ws.nw.Reset(n, s, t)
	}
	nw := ws.nw
	nw.Grow(m)
	for k, u := range free {
		// Each free node adds its out-edges, and its in-edges from the two
		// groups; an edge between two free nodes is its tail's.
		for _, e := range sk.Incident(u) {
			_, v := sk.EdgeEnds(e)
			if e&1 == 0 {
				nw.AddEdge(2+k, id[v], sk.EdgeCap(e))
			} else if id[v] < 2 {
				nw.AddEdge(id[v], 2+k, sk.EdgeCap(e^1))
			}
		}
	}
	nw.AddEdge(s, t, across)
	return nw, weight, id
}

// prepare converts a program (clone) into analyzed, normalized SSA form:
// SSA construction, critical-edge splitting, loop-exit landing pads, unique
// exit, and dependence analysis.
func prepare(prog *ir.Program, arch *costmodel.Arch) (*dep.Analysis, error) {
	ssa.Build(prog.Func)
	ssa.CopyProp(prog.Func)
	ssa.DeadCode(prog.Func)
	splitCriticalEdges(prog.Func)
	splitLoopExits(prog.Func)
	prog.Func.CanonicalizeExit()
	return dep.Analyze(prog, arch)
}
