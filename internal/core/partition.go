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
	ws   *workspace
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
	nw     maxflow.Network
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

// netModel is the flow network of one program (paper step 1.6) held as the
// facts it is built from, gathered once per analysis and only read
// afterwards: edges lists the whole network, and each cut search builds
// from the facts only the part its pins leave free (window). The source and
// the sink are nodes 0 and 1, component c is node 2+c and object i is node
// 2+nc+i.
type netModel struct {
	weight []int64 // balance weight by node: the components', zero elsewhere
	nc     int
	nNodes int
	// Object i is defined in component node def[i] at cost[i] (VCost or
	// CCost) and used in the component nodes users[userAt[i]:userAt[i+1]],
	// each once, none of them def[i].
	def    []int
	cost   []int64
	userAt []int
	users  []int
	// order holds the (tail, head) component nodes of the ordering edges,
	// one per pair of components, each from the later to the earlier;
	// anchor[c] has bit 0 set when component c has no predecessor and bit 1
	// when it has no successor.
	order  [][2]int
	anchor []uint8
}

// compNode returns the node of component c.
func (net *netModel) compNode(c int) int { return 2 + c }

// buildNetwork gathers the flow network of paper step 1.6 over the
// dependence-graph components: program (component) nodes carry the balance
// weight; each externally used SSA value contributes a variable node whose
// single definition edge carries VCost; each branch unit with external
// control dependents contributes a control node whose definition edge
// carries CCost; use edges are infinite; and reverse-infinite edges enforce
// that no dependence flows from the sink side to the source side.
//
// What must be deterministic is the node numbering: variable nodes are
// assigned in register order and control nodes in branch-unit order, never
// in map-iteration order, because node ids are order-sensitive downstream —
// balance's frontierCandidates breaks its last tie by id, and the numbering
// is what the reports' values/ctrls counts are read off. The order edges are
// listed in is not: among equal-cost minimum cuts maxflow always returns the
// canonical one, whatever order it met or discharged the edges in
// (TestRandomContractionAgainstEdmondsKarp).
func buildNetwork(an *dep.Analysis, scc *graph.SCCResult, cg *graph.Digraph, compWeight []int64, arch *costmodel.Arch) *netModel {
	nc := len(compWeight)
	net := &netModel{nc: nc, userAt: []int{0}, anchor: make([]uint8, nc)}
	// mark[x] == stamp: component x is already listed for the object (or
	// tail component) at hand.
	mark := make([]int, nc)
	stamp := 0
	object := func(d int, cost int64, uses []int) {
		stamp++
		for _, use := range uses {
			if uc := scc.Comp[use]; uc != d && mark[uc] != stamp {
				mark[uc] = stamp
				net.users = append(net.users, net.compNode(uc))
			}
		}
		// Only an object used outside its own component gets a node.
		if n := len(net.users); n > net.userAt[len(net.userAt)-1] {
			net.def = append(net.def, net.compNode(d))
			net.cost = append(net.cost, cost)
			net.userAt = append(net.userAt, n)
		}
	}
	// Variable nodes first, then control nodes.
	for r, def := range an.DataDef {
		if def >= 0 {
			object(scc.Comp[def], arch.VCost, an.DataUses[r])
		}
	}
	for b, deps := range an.Ctrl {
		object(scc.Comp[b], arch.CCost, deps)
	}
	net.nNodes = 2 + nc + len(net.def)

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
	for i, o := range an.Order {
		if firstOrder[i] {
			net.order = append(net.order, [2]int{net.compNode(scc.Comp[o[1]]), net.compNode(scc.Comp[o[0]])})
		}
	}
	for c := range net.anchor {
		if len(cg.Preds(c)) == 0 {
			net.anchor[c] |= 1
		}
		if len(cg.Succs(c)) == 0 {
			net.anchor[c] |= 2
		}
	}

	net.weight = make([]int64, net.nNodes)
	copy(net.weight[2:], compWeight)
	return net
}

// edges calls add for every edge of the network, in a fixed order: each
// object's edges (objectEdges), then compEdges'.
func (net *netModel) edges(add func(u, v int, c int64)) {
	for i := range net.def {
		net.objectEdges(i, add)
	}
	net.compEdges(func(int) bool { return true }, add)
}

// objectEdges calls add for object i's edges: its definition edge, the
// infinite edge back that keeps it downstream of its definition, and for
// each user an infinite use edge and an infinite edge from the user back to
// the definition.
func (net *netModel) objectEdges(i int, add func(u, v int, c int64)) {
	on, d := 2+net.nc+i, net.def[i]
	add(d, on, net.cost[i])
	add(on, d, maxflow.Inf)
	for _, uc := range net.users[net.userAt[i]:net.userAt[i+1]] {
		add(on, uc, maxflow.Inf)
		add(uc, d, maxflow.Inf)
	}
}

// compEdges calls add for the ordering edges with an end keep accepts, then
// for the anchor edges (paper step 1.6.1) of the components keep accepts:
// zero-cost edges from the source to entry components and from terminal
// components to the sink. Anchors give the balanced-cut search frontier
// candidates even before any component is pinned; cutting them transmits
// nothing.
func (net *netModel) compEdges(keep func(u int) bool, add func(u, v int, c int64)) {
	const src, snk = 0, 1
	for _, o := range net.order {
		if keep(o[0]) || keep(o[1]) {
			add(o[0], o[1], maxflow.Inf)
		}
	}
	for c, a := range net.anchor {
		if u := net.compNode(c); keep(u) {
			if a&1 != 0 {
				add(src, u, 0)
			}
			if a&2 != 0 {
				add(u, snk, 0)
			}
		}
	}
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
	side := scratch(&ws.bools, a.net.nNodes) // each cut's source side in turn

	for i := 1; i < D; i++ {
		lo, hi := a.cutBand(i, D, opts.Epsilon, collapsedW)
		a.pinCut(pin, assigned, lo, hi)
		res := a.net.minCut(ws, pin, lo, hi, collapsedW, side)
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
		res.SourceSide = nil // side is the next cut's
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
// returns its result with SourceSide indexed by model node: side, which
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
//   - every other node is free, numbered from 2 in node order, so the
//     search's tie-breaks by node id do not change;
//   - the edges with a free end are kept; of the rest, those from the source
//     group to the sink group become one source-sink edge of their summed
//     capacity, so a cut's cost keeps its value: the definition edges of
//     such objects (the anchors cost nothing, and the edges between
//     components run from a later to an earlier one, so none runs from the
//     source pins to the sink pins);
//   - the source weighs what folded into it.
//
// Folding changes no cut the search meets: max-flow returns the canonical
// minimum cut, the largest source side, which puts a folded node on its
// side whatever else it does, and the search moves only free nodes. It
// returns the network, its weights and id, where id[u] is model node u's
// node in it.
func (net *netModel) window(ws *workspace, pin []int8) (*maxflow.Network, []int64, []int) {
	const s, t = 0, 1
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
	comps := len(free)
	m := 1 // the edges with a free end, and the source-sink edge
	for i, d := range net.def {
		users := net.users[net.userAt[i]:net.userAt[i+1]]
		sides := int8(1) << min(id[d], 2) // bit 0: a source pin, 1: a sink pin, 2: a free one
		for _, uc := range users {
			sides |= 1 << min(id[uc], 2)
		}
		switch u := 2 + net.nc + i; sides {
		case 1:
			id[u] = s
		case 2:
			id[u] = t
		case 3: // its definition edge runs from the source group
			id[u] = t
			across += net.cost[i]
		default:
			id[u] = 2 + len(free)
			free = append(free, u)
			m += 2 + 2*len(users)
		}
	}
	ws.free = free
	isFree := func(u int) bool { return id[u] >= 2 }
	net.compEdges(isFree, func(int, int, int64) { m++ })

	n := 2 + len(free)
	weight := scratch(&ws.winW, n)
	weight[s], weight[t] = srcW, snkW
	for k, u := range free[:comps] {
		weight[2+k] = net.weight[u]
	}
	nw := &ws.nw
	nw.Reset(n, s, t)
	nw.Grow(m)
	// The edges with a free end, in the order edges lists them: a folded
	// object's ends are all pinned, a free one's node is free.
	add := func(u, v int, c int64) { nw.AddEdge(id[u], id[v], c) }
	for _, u := range free[comps:] {
		net.objectEdges(u-2-net.nc, add)
	}
	net.compEdges(isFree, add)
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
