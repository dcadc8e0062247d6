package core

import (
	"fmt"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/dep"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/ir"
)

// Analysis is the immutable, reusable product of the degree-independent
// front half of the pipelining compiler: normalized SSA form, the
// dependence analysis (def–use chains, control and ordering dependences),
// the unit dependence graph with its SCC condensation, per-component
// balance weights, the tables the flow network is built from, the
// interference-test position tables, and the control-dependence closures.
//
// All of this is identical at every pipelining degree, transmission mode,
// balance variance and ring kind, so the compiler driver builds it once per
// program (Analyze) and then cuts many candidate configurations from it
// (Partition). After Analyze returns, the analysis itself is never mutated:
// any number of Partition calls may run concurrently against one Analysis;
// the per-candidate phase builds each cut's contracted network from those
// tables and clones the stage function bodies, in a workspace of its own.
// The one thing the calls share that changes is the sync.Pool their idle
// workspaces wait in.
type Analysis struct {
	arch *costmodel.Arch
	prog *ir.Program // analyzed private clone; realized stages share its Arrays
	an   *dep.Analysis

	ug          *graph.Digraph   // unit dependence graph
	scc         *graph.SCCResult // its SCCs (the paper's DG components)
	topo        []int            // deterministic topological order of the components
	compWeight  []int64          // balance weight per component
	totalWeight int64

	// net holds what the flow network of paper step 1.6 is built from; each
	// cut search builds the part of it the cut leaves free.
	net *netModel

	// ps holds block reachability (as block sets) and instruction
	// positions for the interference relation; closures[b] lists branch
	// unit b's transitive control dependents (empty for other units).
	ps       *positions
	closures [][]int

	// What realization needs of the analyzed function alone, the same for
	// every cut and every stage: each summarized node's entry block (-1 when
	// it has none), the unique exit block, and each branch or loop unit's
	// distinct external successor blocks, which control-object values index.
	// (The unit of the instruction at each position is an.UnitAt, the
	// post-dominator tree skip targets come from is an.PostDom, and where
	// each register is defined is ps.defAt.)
	nodeEntry []int
	exitBlock int
	targets   [][]int
	regName   []string // an.F.RegName indexed by register ("" unnamed)

	// isConst[r]: register r is defined by an OpConst outside every inner
	// loop. No cut transmits it: each stage that reads it keeps its own copy
	// of the const, in its original block (stageShell), which the stage
	// reaches wherever it reaches a read the const dominates. Inside an
	// inner loop that block would be a stub in every other stage.
	isConst []bool
	constOf []int // constOf[u]: the register unit u defines if it is such a const, else -1
	// body lists, in program order, where every unit instruction outside
	// the terminators sits: at D=1, all the one stage copies.
	body []pos

	// codes[u]+t is the code a coded control object of unit u writes on
	// its target t (liveset.go, shareCodes): every non-default target of
	// the program has a nonzero code of its own.
	codes []int64

	// seq is the worst-case path cost of the unpartitioned program. The
	// channel kind cannot affect it: channel costs apply only to the
	// OpSendLS/OpRecvLS instructions that realization inserts later.
	seq PathCost

	// idle holds the workspaces of finished Partition and Coarsen calls for
	// the next ones; the GC empties it. It is allocated apart from the
	// Analysis: sync keeps every pool it has seen in a list for two GC
	// cycles, and an embedded one would pin the Analysis that long.
	idle *sync.Pool
}

// Analyze runs the degree-independent analysis phase on a PPS program
// (whose Func must be the one-iteration loop body in mutable, pre-SSA
// form). The input program is not modified; a nil arch selects
// costmodel.Default(). The returned Analysis is immutable and safe for
// concurrent Partition calls.
func Analyze(orig *ir.Program, arch *costmodel.Arch) (*Analysis, error) {
	if orig == nil || orig.Func == nil {
		return nil, fmt.Errorf("core: %w", errs.ErrNilProgram)
	}
	if arch == nil {
		arch = costmodel.Default()
	}
	prog := orig.Clone()
	an, err := prepare(prog, arch)
	if err != nil {
		return nil, err
	}

	a := &Analysis{arch: arch, prog: prog, an: an, idle: &sync.Pool{New: func() any { return new(workspace) }}}
	a.ug = an.UnitGraph()
	a.scc = graph.SCC(a.ug)
	nc := a.scc.NumComps()
	a.compWeight = make([]int64, nc)
	for _, u := range an.Units {
		a.compWeight[a.scc.Comp[u.ID]] += u.Weight
	}
	for _, w := range a.compWeight {
		a.totalWeight += w
	}
	cg := compDAG(an, a.scc)
	a.topo = topoByProgramOrder(cg, a.scc)
	a.net = buildNetwork(an, a.scc, cg, a.compWeight, arch)
	cfg := an.F.CFG()
	a.ps = newPositions(an, cfg)
	a.closures = ctrlClosures(an)
	a.indexForRealize(cfg)
	a.seq = FuncCost(an.F, arch, costmodel.NNRing)
	return a, nil
}

// indexForRealize computes the cut-invariant tables stage realization reads;
// cfg is the analyzed function's CFG.
func (a *Analysis) indexForRealize(cfg *graph.Digraph) {
	an, f := a.an, a.an.F
	a.exitBlock = f.ExitBlocks()[0] // dep.Analyze checked there is exactly one

	// A summarized node's entry is its only block, or its first block with a
	// predecessor outside the node.
	members := make([]int, an.SumCFG.Len())
	a.nodeEntry = make([]int, an.SumCFG.Len())
	for n := range a.nodeEntry {
		a.nodeEntry[n] = -1
	}
	for _, b := range f.Blocks {
		members[an.BlockComp[b.ID]]++
	}
	for _, b := range f.Blocks {
		n := an.BlockComp[b.ID]
		if a.nodeEntry[n] >= 0 {
			continue
		}
		external := members[n] == 1
		for _, p := range cfg.Preds(b.ID) {
			external = external || an.BlockComp[p] != n
		}
		if external {
			a.nodeEntry[n] = b.ID
		}
	}

	a.targets = make([][]int, len(an.Units))
	for _, u := range an.Units {
		if last := u.Instrs[len(u.Instrs)-1]; u.IsLoop || last.Op == ir.OpBr || last.Op == ir.OpSwitch {
			a.targets[u.ID] = unitTargets(f, u)
		}
	}
	a.codes = make([]int64, len(an.Units))
	for u, next := 0, int64(1); u < len(a.codes); u++ {
		a.codes[u] = next
		next += int64(max(len(a.targets[u])-1, 0))
	}

	a.regName = make([]string, f.NumRegs)
	for r, s := range f.RegName {
		a.regName[r] = s
	}

	n := 0
	for _, ps := range a.ps.unitPos {
		n += len(ps)
	}
	a.body = make([]pos, 0, n)
	for _, b := range f.Blocks {
		units := an.UnitAt[b.ID]
		if b.Term() != nil {
			units = units[:len(units)-1]
		}
		for i, u := range units {
			if u >= 0 {
				a.body = append(a.body, pos{b.ID, i})
			}
		}
	}

	a.isConst = make([]bool, f.NumRegs)
	a.constOf = make([]int, len(an.Units))
	for u := range a.constOf {
		a.constOf[u] = -1
	}
	for r, u := range an.DataDef {
		a.isConst[r] = u >= 0 && !an.Units[u].IsLoop && an.Units[u].Instrs[0].Op == ir.OpConst
		if a.isConst[r] {
			a.constOf[u] = r
		}
	}
}

// Seq returns the worst-case path cost of the unpartitioned program.
func (a *Analysis) Seq() PathCost { return a.seq }

// resolveOptions validates per-candidate options against the analysis. The
// unit weights and flow-network capacities are baked into the analysis, so
// a candidate cannot swap the cost model; everything else (degree, ε,
// transmission mode, ring kind) is free per call.
func (a *Analysis) resolveOptions(options Options) (Options, error) {
	if err := options.Validate(); err != nil {
		return Options{}, err
	}
	if options.Arch != nil && options.Arch != a.arch {
		return Options{}, fmt.Errorf("core: %w; call Analyze with that model instead", errs.ErrArchMismatch)
	}
	options.Arch = a.arch
	return options.withDefaults(), nil
}

// ctrlClosures precomputes the transitive control dependents of every
// branch unit: everything directly control-dependent on it plus everything
// dependent on branches inside its region. Precomputing (rather than
// memoizing lazily, as partitionState once did) keeps the Analysis free of
// mutable state, so concurrent Partition calls need no locking. The
// closures are windows of one slice, cut once it has stopped growing.
func ctrlClosures(an *dep.Analysis) [][]int {
	out := make([][]int, len(an.Units))
	end := make([]int, len(an.Units))
	seen := make([]int, len(an.Units)) // seen[w] == u+1: w is in u's closure
	var flat, queue []int
	for u := range an.Ctrl {
		queue = append(queue[:0], an.Ctrl[u]...)
		for qh := 0; qh < len(queue); qh++ {
			w := queue[qh]
			if seen[w] == u+1 {
				continue
			}
			seen[w] = u + 1
			flat = append(flat, w)
			queue = append(queue, an.Ctrl[w]...)
		}
		end[u] = len(flat)
	}
	start := 0
	for u, e := range end {
		out[u], start = flat[start:e:e], e
	}
	return out
}
