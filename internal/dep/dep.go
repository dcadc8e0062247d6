// Package dep builds the dependence structure the pipelining transformation
// cuts (paper steps 1.3–1.5):
//
//   - The CFG is summarized by collapsing its strongly connected components
//     (inner loops), so no loop is ever split across pipeline stages.
//   - Placement units are single instructions in straight-line code and
//     whole inner loops otherwise.
//   - The dependence graph over units contains SSA data dependences,
//     control dependences (via post-dominance frontiers on the summarized
//     CFG), intra-iteration ordering dependences between conflicting memory
//     or effect-channel accesses, and PPS-loop-carried dependences from
//     persistent state (which tie their endpoints into one SCC, keeping
//     them inside a single stage).
package dep

import (
	"fmt"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/ir"
)

// Unit is one placement unit.
type Unit struct {
	ID     int
	Instrs []*ir.Instr
	Blocks []int // block IDs covered (one for plain units, several for loops)
	IsLoop bool
	Weight int64

	// SumNode is the summarized-CFG node the unit lives in.
	SumNode int
}

// Analysis holds the dependence structure of one SSA-form function.
type Analysis struct {
	F     *ir.Func
	Arch  *costmodel.Arch
	Units []*Unit

	// UnitOf maps each instruction to its unit ID (terminators of
	// straight-line blocks that are unconditional map to -1).
	UnitOf map[*ir.Instr]int

	// Summarized CFG over block-SCC components.
	SumCFG    *graph.Digraph
	BlockComp []int // block ID -> summarized node
	SumSuccs  [][]int
	ExitNode  int
	// PostDom is the post-dominator tree of SumCFG, rooted at ExitNode.
	PostDom *graph.DomTree

	// DataDef[r] is the unit defining SSA register r (or -1); DataUses[r]
	// lists the units using r (deduplicated, excluding the def unit's own
	// internal uses).
	DataDef  []int
	DataUses [][]int

	// Ctrl[b] lists the units control-dependent on branch unit b
	// (including phi-decider dependences).
	Ctrl map[int][]int

	// Order lists intra-iteration ordering dependences (from, to).
	Order [][2]int

	// Carried lists PPS-loop-carried dependence pairs; each pair is
	// bidirectional (it must end up inside one DG SCC).
	Carried [][2]int
}

// Analyze builds the dependence structure. f must be in SSA form with a
// unique exit block; every block must reach the exit (inner loops must be
// able to terminate).
func Analyze(prog *ir.Program, arch *costmodel.Arch) (*Analysis, error) {
	f := prog.Func
	a := &Analysis{F: f, Arch: arch, UnitOf: make(map[*ir.Instr]int)}

	if err := a.summarizeCFG(); err != nil {
		return nil, err
	}
	a.buildUnits()
	a.buildDataDeps()
	if err := a.buildControlDeps(); err != nil {
		return nil, err
	}
	a.buildOrderAndCarriedDeps()
	return a, nil
}

// summarizeCFG collapses CFG SCCs and checks exit reachability.
func (a *Analysis) summarizeCFG() error {
	f := a.F
	cfg := f.CFG()
	scc := graph.SCC(cfg)
	a.BlockComp = scc.Comp
	a.SumCFG = graph.Condense(cfg, scc)

	exits := f.ExitBlocks()
	if len(exits) != 1 {
		return fmt.Errorf("%s: expected a unique exit block, have %d (call CanonicalizeExit first)", f.Name, len(exits))
	}
	a.ExitNode = scc.Comp[exits[0]]

	// Every summarized node must reach the exit; otherwise an inner loop
	// can never terminate and the transformation (and the program) is
	// ill-defined.
	rev := a.SumCFG.Reverse()
	reach := rev.ReachableFrom(a.ExitNode)
	for n := 0; n < a.SumCFG.Len(); n++ {
		if !reach[n] {
			return fmt.Errorf("%s: an inner loop or region (summarized node %d) never reaches the PPS iteration end", f.Name, n)
		}
	}
	return nil
}

// isLoopNode reports whether summarized node c is a nontrivial SCC or a
// self-looping block.
func (a *Analysis) isLoopNode(c int, members []int) bool {
	if len(members) > 1 {
		return true
	}
	b := members[0]
	for _, s := range a.F.Blocks[b].Succs() {
		if s == b {
			return true
		}
	}
	return false
}

// buildUnits creates placement units.
func (a *Analysis) buildUnits() {
	f := a.F
	// Group blocks by summarized node.
	nodeBlocks := make([][]int, a.SumCFG.Len())
	for _, b := range f.Blocks {
		c := a.BlockComp[b.ID]
		nodeBlocks[c] = append(nodeBlocks[c], b.ID)
	}
	for c, blocks := range nodeBlocks {
		if len(blocks) == 0 {
			continue
		}
		if a.isLoopNode(c, blocks) {
			u := &Unit{ID: len(a.Units), IsLoop: true, Blocks: blocks, SumNode: c}
			for _, bid := range blocks {
				for _, in := range f.Blocks[bid].Instrs {
					u.Instrs = append(u.Instrs, in)
					a.UnitOf[in] = u.ID
					u.Weight += int64(a.Arch.InstrWeight(in))
				}
			}
			// Scale by the worst-case trip count so balancing sees the
			// dynamic cost of the loop (the paper's weight function is
			// explicitly flexible; see DESIGN.md).
			u.Weight *= int64(a.loopBound(blocks))
			a.Units = append(a.Units, u)
			continue
		}
		bid := blocks[0]
		blk := f.Blocks[bid]
		for _, in := range blk.Instrs {
			switch in.Op {
			case ir.OpJmp, ir.OpRet:
				a.UnitOf[in] = -1 // structural; every stage clone has its own
				continue
			}
			u := &Unit{
				ID:      len(a.Units),
				Instrs:  []*ir.Instr{in},
				Blocks:  []int{bid},
				SumNode: c,
				Weight:  int64(a.Arch.InstrWeight(in)),
			}
			a.UnitOf[in] = u.ID
			a.Units = append(a.Units, u)
		}
	}
}

// loopBound returns the annotated worst-case trip count of a loop group,
// falling back to the architecture default.
func (a *Analysis) loopBound(blocks []int) int {
	bound := 0
	for _, bid := range blocks {
		if lb := a.F.Blocks[bid].LoopBound; lb > bound {
			bound = lb
		}
	}
	if bound == 0 {
		bound = a.Arch.DefaultLoopBound
	}
	return bound
}

// buildDataDeps records SSA def/use units per register.
func (a *Analysis) buildDataDeps() {
	f := a.F
	a.DataDef = make([]int, f.NumRegs)
	a.DataUses = make([][]int, f.NumRegs)
	for i := range a.DataDef {
		a.DataDef[i] = -1
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			u := a.UnitOf[in]
			for _, d := range in.Defines() {
				a.DataDef[d] = u
			}
		}
	}
	seen := make(map[[2]int]bool)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			u := a.UnitOf[in]
			for _, r := range in.Uses() {
				if u == -1 {
					// Unconditional terminators use no registers; Br and
					// Switch are units. Nothing to record.
					continue
				}
				if a.DataDef[r] == u {
					continue // internal to the unit
				}
				key := [2]int{r, u}
				if !seen[key] {
					seen[key] = true
					a.DataUses[r] = append(a.DataUses[r], u)
				}
			}
		}
	}
}

// buildControlDeps computes control dependence on the summarized CFG and
// phi-decider dependences, recording them per branch unit.
func (a *Analysis) buildControlDeps() error {
	f := a.F
	// Post-dominators of the summarized CFG.
	pdom := graph.Dominators(a.SumCFG.Reverse(), a.ExitNode)
	a.PostDom = pdom

	// Control dependence (Ferrante-Ottenstein-Warren on the summarized
	// graph): for edge u->v where v does not post-dominate u, every node on
	// the post-dominator path from v up to (excluding) ipdom(u) is control
	// dependent on u.
	ctrlOf := make([][]int, a.SumCFG.Len()) // node -> controlling branch nodes
	addCD := func(w, u int) {
		for _, x := range ctrlOf[w] {
			if x == u {
				return
			}
		}
		ctrlOf[w] = append(ctrlOf[w], u)
	}
	for u := 0; u < a.SumCFG.Len(); u++ {
		succs := a.SumCFG.Succs(u)
		if len(succs) < 2 {
			continue
		}
		for _, v := range succs {
			runner := v
			for runner != pdom.Idom[u] && runner != u {
				addCD(runner, u)
				next := pdom.Idom[runner]
				if next < 0 || next == runner {
					break
				}
				runner = next
			}
			// A node can control itself via a cycle (loop exits); the
			// summarized graph is acyclic so runner == u cannot occur, but
			// the guard keeps the walk safe.
		}
	}

	// branchUnit maps a summarized node with >=2 successors to the unit
	// that decides its exit: the loop unit itself, or the unit of the
	// block's conditional terminator.
	a.Ctrl = make(map[int][]int)
	branchUnitOf := func(node int) (int, error) {
		// Find a unit whose SumNode is node and which owns the decision.
		for _, u := range a.Units {
			if u.SumNode != node {
				continue
			}
			if u.IsLoop {
				return u.ID, nil
			}
			in := u.Instrs[0]
			if in.Op == ir.OpBr || in.Op == ir.OpSwitch {
				return u.ID, nil
			}
		}
		return -1, fmt.Errorf("%s: summarized node %d branches but has no deciding unit", a.F.Name, node)
	}

	addCtrl := func(b, dep int) {
		if b == dep {
			return
		}
		for _, x := range a.Ctrl[b] {
			if x == dep {
				return
			}
		}
		a.Ctrl[b] = append(a.Ctrl[b], dep)
	}

	for _, u := range a.Units {
		for _, ctrlNode := range ctrlOf[u.SumNode] {
			b, err := branchUnitOf(ctrlNode)
			if err != nil {
				return err
			}
			addCtrl(b, u.ID)
		}
	}

	// Phi deciders: a phi's stage must be able to tell which predecessor
	// executed, so it depends on every branch that distinguishes its
	// predecessors (conservatively: the controllers of each predecessor's
	// summarized node, plus the predecessor node itself when it branches).
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op != ir.OpPhi {
				break
			}
			phiUnit := a.UnitOf[in]
			for _, p := range in.PhiPreds {
				pn := a.BlockComp[p]
				if len(a.SumCFG.Succs(pn)) >= 2 {
					b, err := branchUnitOf(pn)
					if err != nil {
						return err
					}
					addCtrl(b, phiUnit)
				}
				for _, ctrlNode := range ctrlOf[pn] {
					b, err := branchUnitOf(ctrlNode)
					if err != nil {
						return err
					}
					addCtrl(b, phiUnit)
				}
			}
		}
	}
	return nil
}

// effectsOf returns the effect list of an instruction: intrinsic effects
// for calls, synthetic array-channel effects for loads/stores.
func effectsOf(in *ir.Instr) []costmodel.Effect {
	switch in.Op {
	case ir.OpLoad:
		return []costmodel.Effect{{Channel: "arr:" + in.Arr.Name, Write: false, Persistent: in.Arr.Persistent}}
	case ir.OpStore:
		return []costmodel.Effect{{Channel: "arr:" + in.Arr.Name, Write: true, Persistent: in.Arr.Persistent}}
	case ir.OpCall:
		if intr, ok := costmodel.Intrinsics[in.Call]; ok {
			return intr.Effects
		}
	}
	return nil
}

// buildOrderAndCarriedDeps adds ordering dependences between conflicting
// effectful units and loop-carried dependences for persistent channels.
func (a *Analysis) buildOrderAndCarriedDeps() {
	type access struct {
		unit  int
		write bool
	}
	channels := make(map[string][]access)
	persistent := make(map[string]bool)
	// Record accesses in deterministic program order (block ID, index).
	for _, b := range a.F.Blocks {
		for _, in := range b.Instrs {
			u, ok := a.UnitOf[in]
			if !ok || u < 0 {
				continue
			}
			for _, e := range effectsOf(in) {
				channels[e.Channel] = append(channels[e.Channel], access{unit: u, write: e.Write})
				if e.Persistent {
					persistent[e.Channel] = true
				}
			}
		}
	}

	// Reachability between summarized nodes orders units.
	reach := make([][]bool, a.SumCFG.Len())
	for n := range reach {
		reach[n] = a.SumCFG.ReachableFrom(n)
	}
	unitBefore := func(x, y int) bool {
		ux, uy := a.Units[x], a.Units[y]
		if ux.SumNode == uy.SumNode {
			if ux.IsLoop || uy.IsLoop {
				return false // same unit; cannot happen for x != y
			}
			// Same straight-line block: compare instruction positions.
			blk := a.F.Blocks[ux.Blocks[0]]
			xi, yi := -1, -1
			for i, in := range blk.Instrs {
				if a.UnitOf[in] == x {
					xi = i
				}
				if a.UnitOf[in] == y {
					yi = i
				}
			}
			return xi < yi
		}
		return reach[ux.SumNode][uy.SumNode]
	}

	// Iterate channels in sorted name order: the Order/Carried lists feed
	// dependence-graph and flow-network construction, and a map-order walk
	// here would make unit SCC numbering (and hence everything downstream,
	// up to the cut reports) vary between runs of the same program.
	chNames := make([]string, 0, len(channels))
	for ch := range channels {
		chNames = append(chNames, ch)
	}
	sort.Strings(chNames)

	orderSeen := make(map[[2]int]bool)
	carriedSeen := make(map[[2]int]bool)
	for _, ch := range chNames {
		accs := channels[ch]
		carried := persistent[ch]
		for i := 0; i < len(accs); i++ {
			for j := i + 1; j < len(accs); j++ {
				x, y := accs[i], accs[j]
				if x.unit == y.unit || (!x.write && !y.write) {
					continue
				}
				if carried {
					key := [2]int{min(x.unit, y.unit), max(x.unit, y.unit)}
					if !carriedSeen[key] {
						carriedSeen[key] = true
						a.Carried = append(a.Carried, [2]int{x.unit, y.unit})
					}
					continue
				}
				var from, to int
				switch {
				case unitBefore(x.unit, y.unit):
					from, to = x.unit, y.unit
				case unitBefore(y.unit, x.unit):
					from, to = y.unit, x.unit
				default:
					continue // mutually exclusive paths; never conflict
				}
				key := [2]int{from, to}
				if !orderSeen[key] {
					orderSeen[key] = true
					a.Order = append(a.Order, [2]int{from, to})
				}
			}
		}
	}
}

// UnitGraph builds the full dependence digraph over units (data, control,
// order, and both directions of loop-carried pairs).
func (a *Analysis) UnitGraph() *graph.Digraph {
	g := graph.New(len(a.Units))
	for r, def := range a.DataDef {
		if def < 0 {
			continue
		}
		for _, use := range a.DataUses[r] {
			g.AddEdge(def, use)
		}
	}
	for b, deps := range a.Ctrl {
		for _, d := range deps {
			g.AddEdge(b, d)
		}
	}
	for _, o := range a.Order {
		g.AddEdge(o[0], o[1])
	}
	for _, c := range a.Carried {
		g.AddEdge(c[0], c[1])
		g.AddEdge(c[1], c[0])
	}
	g.Dedup()
	return g
}
