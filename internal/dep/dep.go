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

	// UnitAt[b][i] is the unit ID of block b's i'th instruction (-1 for the
	// unconditional terminators of straight-line blocks).
	UnitAt [][]int

	// Summarized CFG over block-SCC components.
	SumCFG    *graph.Digraph
	BlockComp []int // block ID -> summarized node
	ExitNode  int
	// PostDom is the post-dominator tree of SumCFG, rooted at ExitNode.
	PostDom *graph.DomTree

	// DataDef[r] is the unit defining SSA register r (or -1); DataUses[r]
	// lists the units using r (deduplicated, excluding the def unit's own
	// internal uses).
	DataDef  []int
	DataUses [][]int

	// Ctrl[b] lists the units control-dependent on branch unit b
	// (including phi-decider dependences); it is empty for other units.
	Ctrl [][]int

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
	a := &Analysis{F: f, Arch: arch}

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
	a.PostDom = graph.Dominators(rev, a.ExitNode)
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

// buildUnits creates placement units. Their instruction lists and UnitAt's
// rows are carved from one allocation each; one-block lists share ids.
func (a *Analysis) buildUnits() {
	f := a.F
	nodeBlocks := make([][]int, a.SumCFG.Len()) // blocks by summarized node
	ids := make([]int, len(f.Blocks))
	nInstrs := 0
	for _, b := range f.Blocks {
		c := a.BlockComp[b.ID]
		ids[b.ID] = b.ID
		if nodeBlocks[c] == nil {
			nodeBlocks[c] = ids[b.ID : b.ID+1 : b.ID+1]
		} else {
			nodeBlocks[c] = append(nodeBlocks[c], b.ID)
		}
		nInstrs += len(b.Instrs)
	}
	instrs, at := make([]*ir.Instr, 0, nInstrs), make([]int, nInstrs)
	a.UnitAt = make([][]int, len(f.Blocks))
	for _, b := range f.Blocks {
		a.UnitAt[b.ID], at = at[:len(b.Instrs):len(b.Instrs)], at[len(b.Instrs):]
	}
	var units []Unit
	for c, blocks := range nodeBlocks {
		if len(blocks) == 0 {
			continue
		}
		if a.isLoopNode(c, blocks) {
			u := Unit{ID: len(units), IsLoop: true, Blocks: blocks, SumNode: c}
			start := len(instrs)
			for _, bid := range blocks {
				for i, in := range f.Blocks[bid].Instrs {
					instrs = append(instrs, in)
					a.UnitAt[bid][i] = u.ID
					u.Weight += int64(a.Arch.InstrWeight(in, costmodel.NNRing))
				}
			}
			u.Instrs = instrs[start:len(instrs):len(instrs)]
			// Scale by the worst-case trip count so balancing sees the
			// dynamic cost of the loop (the paper's weight function is
			// explicitly flexible; see DESIGN.md).
			u.Weight *= int64(a.loopBound(blocks))
			units = append(units, u)
			continue
		}
		bid := blocks[0]
		for i, in := range f.Blocks[bid].Instrs {
			switch in.Op {
			case ir.OpJmp, ir.OpRet:
				a.UnitAt[bid][i] = -1 // structural; every stage clone has its own
				continue
			}
			instrs = append(instrs, in)
			a.UnitAt[bid][i] = len(units)
			units = append(units, Unit{
				ID:      len(units),
				Instrs:  instrs[len(instrs)-1 : len(instrs) : len(instrs)],
				Blocks:  blocks,
				SumNode: c,
				Weight:  int64(a.Arch.InstrWeight(in, costmodel.NNRing)),
			})
		}
	}
	a.Units = make([]*Unit, len(units))
	for i := range units {
		a.Units[i] = &units[i]
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

// lists returns n lists carved from one allocation: list k holds the values
// pairs reports for key k, in the order it first reports them, without
// repeats; values lie below vals. pairs is called twice, to size the lists
// and to fill them.
func lists(n, vals int, pairs func(add func(k, v int))) [][]int {
	start := make([]int, n+1)
	pairs(func(k, _ int) { start[k+1]++ })
	for k := 0; k < n; k++ {
		start[k+1] += start[k]
	}
	slab, out := make([]int, start[n]), make([][]int, n)
	for k := range out {
		out[k] = slab[start[k]:start[k]:start[k+1]]
	}
	pairs(func(k, v int) { out[k] = append(out[k], v) })
	mark := make([]int, vals) // mark[v] == k+1: v is already in list k
	for k, l := range out {
		kept := l[:0]
		for _, v := range l {
			if mark[v] != k+1 {
				mark[v] = k + 1
				kept = append(kept, v)
			}
		}
		out[k] = kept
	}
	return out
}

// buildDataDeps records SSA def/use units per register.
func (a *Analysis) buildDataDeps() {
	f := a.F
	a.DataDef = make([]int, f.NumRegs)
	for i := range a.DataDef {
		a.DataDef[i] = -1
	}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			for _, d := range in.Defines() {
				a.DataDef[d] = a.UnitAt[b.ID][i]
			}
		}
	}
	a.DataUses = lists(f.NumRegs, len(a.Units), func(add func(r, u int)) {
		for _, b := range f.Blocks {
			for i, in := range b.Instrs {
				// Unconditional terminators (unit -1) use no registers; Br
				// and Switch are units. A unit's own uses stay internal.
				if u := a.UnitAt[b.ID][i]; u >= 0 {
					for _, r := range in.Uses() {
						if a.DataDef[r] != u {
							add(r, u)
						}
					}
				}
			}
		}
	})
}

// buildControlDeps computes control dependence on the summarized CFG and
// phi-decider dependences, recording them per branch unit.
func (a *Analysis) buildControlDeps() error {
	f, pdom, nn := a.F, a.PostDom, a.SumCFG.Len()
	// Control dependence (Ferrante-Ottenstein-Warren on the summarized
	// graph): for edge u->v where v does not post-dominate u, every node on
	// the post-dominator path from v up to (excluding) ipdom(u) is control
	// dependent on u. ctrlOf maps each node to its controlling branch nodes.
	ctrlOf := lists(nn, nn, func(add func(w, u int)) {
		for u := 0; u < nn; u++ {
			succs := a.SumCFG.Succs(u)
			if len(succs) < 2 {
				continue
			}
			for _, v := range succs {
				runner := v
				// A node can control itself via a cycle (loop exits); the
				// summarized graph is acyclic so runner == u cannot occur,
				// but the guard keeps the walk safe.
				for runner != pdom.Idom[u] && runner != u {
					add(runner, u)
					next := pdom.Idom[runner]
					if next < 0 || next == runner {
						break
					}
					runner = next
				}
			}
		}
	})

	// decider[n] is the unit that decides branching node n's exit: the loop
	// unit itself, or the unit of the block's conditional terminator.
	decider := make([]int, nn)
	for n := range decider {
		decider[n] = -1
	}
	for _, u := range a.Units {
		if in := u.Instrs[0]; decider[u.SumNode] < 0 && (u.IsLoop || in.Op == ir.OpBr || in.Op == ir.OpSwitch) {
			decider[u.SumNode] = u.ID
		}
	}
	for n := 0; n < nn; n++ {
		if len(a.SumCFG.Succs(n)) >= 2 && decider[n] < 0 {
			return fmt.Errorf("%s: summarized node %d branches but has no deciding unit", f.Name, n)
		}
	}

	a.Ctrl = lists(len(a.Units), len(a.Units), func(add func(b, dep int)) {
		addNode := func(n, dep int) {
			if b := decider[n]; b != dep {
				add(b, dep)
			}
		}
		for _, u := range a.Units {
			for _, ctrlNode := range ctrlOf[u.SumNode] {
				addNode(ctrlNode, u.ID)
			}
		}
		// Phi deciders: a phi's stage must be able to tell which
		// predecessor executed, so it depends on every branch that
		// distinguishes its predecessors (conservatively: the controllers of
		// each predecessor's summarized node, plus the predecessor node
		// itself when it branches).
		for _, blk := range f.Blocks {
			for i, in := range blk.Instrs {
				if in.Op != ir.OpPhi {
					break
				}
				phiUnit := a.UnitAt[blk.ID][i]
				for _, p := range in.PhiPreds {
					pn := a.BlockComp[p]
					if len(a.SumCFG.Succs(pn)) >= 2 {
						addNode(pn, phiUnit)
					}
					for _, ctrlNode := range ctrlOf[pn] {
						addNode(ctrlNode, phiUnit)
					}
				}
			}
		}
	})
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
		for i, in := range b.Instrs {
			u := a.UnitAt[b.ID][i]
			if u < 0 {
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
	reach := a.SumCFG.Reach()
	unitBefore := func(x, y int) bool {
		ux, uy := a.Units[x], a.Units[y]
		if ux.SumNode == uy.SumNode {
			if ux.IsLoop || uy.IsLoop {
				return false // same unit; cannot happen for x != y
			}
			// Same straight-line block: compare instruction positions.
			xi, yi := -1, -1
			for i, u := range a.UnitAt[ux.Blocks[0]] {
				if u == x {
					xi = i
				}
				if u == y {
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

// Deps calls add for every dependence between units: data, control, order,
// and both directions of each loop-carried pair.
func (a *Analysis) Deps(add func(u, v int)) {
	for r, def := range a.DataDef {
		if def < 0 {
			continue
		}
		for _, use := range a.DataUses[r] {
			add(def, use)
		}
	}
	for b, deps := range a.Ctrl {
		for _, d := range deps {
			add(b, d)
		}
	}
	for _, o := range a.Order {
		add(o[0], o[1])
	}
	for _, c := range a.Carried {
		add(c[0], c[1])
		add(c[1], c[0])
	}
}

// UnitGraph builds the full dependence digraph over units (Deps, without
// parallel edges).
func (a *Analysis) UnitGraph() *graph.Digraph {
	g := graph.Build(len(a.Units), a.Deps)
	g.Dedup()
	return g
}
