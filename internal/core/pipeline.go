package core

import (
	"fmt"

	"repro/internal/ir"
)

// CutReport summarizes one selected cut.
type CutReport struct {
	Index         int   // cut j separates stages <= j from > j
	Values        int   // SSA values in the live set (never a constant)
	Ctrls         int   // control objects in the live set
	Slots         int   // transmission slots after packing
	Interferences int   // interfering pairs
	Weight        int64 // W(X): source-side weight after this cut
	// Cost is the flow-network cut cost: VCost per value and CCost per
	// control object the cut separates from a use. It still counts a
	// constant at VCost, though no cut sends one and Values and Slots
	// leave it out.
	Cost       int64
	Feasible   bool // balance constraint met exactly
	Iterations int  // min-cut computations used
}

// StageReport summarizes one realized stage.
type StageReport struct {
	Stage  int
	Cost   PathCost
	Blocks int
	Instrs int
}

// Report aggregates everything Partition measured.
type Report struct {
	Stages []StageReport
	Cuts   []CutReport

	// Seq is the worst-case path cost of the unpartitioned program.
	Seq PathCost
	// Speedup is Seq.Total divided by the longest stage's Total — the
	// paper's speedup metric.
	Speedup float64
	// Overhead is the transmission/processing instruction ratio in the
	// longest stage — the paper's live-set transmission overhead metric.
	Overhead float64
	// LongestStage is the 1-based index of the longest stage.
	LongestStage int
}

// Result is the outcome of Partition.
type Result struct {
	// Stages holds one program per pipeline stage, connected by live-set
	// transmissions (OpSendLS/OpRecvLS). All stages share the original
	// program's arrays.
	Stages []*ir.Program
	Report *Report

	// The D-way stage assignment the programs were realized from, kept so
	// Coarsen can realize the same assignment with fewer cuts: no cut's live
	// set and no scratch of the call that made it.
	a       *Analysis
	opts    Options
	stageOf []int
}

// Partition applies the automatic pipelining transformation to a PPS
// program (whose Func must be the one-iteration loop body in mutable,
// pre-SSA form, as produced by the PPC front end). The input program is not
// modified.
//
// Partition is the one-shot convenience path: it runs the full
// degree-independent analysis and then cuts a single configuration. Callers
// evaluating several configurations of the same program (degree sweeps,
// budget exploration, ablations) should call Analyze once and then
// (*Analysis).Partition per configuration — the analysis phase dominates
// the cost of a single Partition call.
func Partition(orig *ir.Program, options Options) (*Result, error) {
	opts := options.withDefaults()
	a, err := Analyze(orig, opts.Arch)
	if err != nil {
		return nil, err
	}
	return a.Partition(opts)
}

// Partition runs the cheap per-configuration phase: the D-1 balanced min
// cuts, each on the part of the flow network it leaves free,
// live-set computation and packing, and stage realization. It never
// mutates the Analysis, so any number of Partition calls may run
// concurrently on one receiver; for a fixed Analysis and Options the result
// is deterministic (bit-identical reports) regardless of how many run at
// once. The realized stage programs share the analysis's array descriptors,
// which are immutable at run time (array storage lives in the interpreter's
// World/Runner, not in the IR).
func (a *Analysis) Partition(options Options) (*Result, error) {
	opts, err := a.resolveOptions(options)
	if err != nil {
		return nil, err
	}
	ws := a.idle.Get().(*workspace)
	defer a.idle.Put(ws)
	stageOf, balanceResults, err := a.assignStages(opts, ws)
	if err != nil {
		return nil, err
	}

	st := &partitionState{opts: opts, a: a, an: a.an, stageOf: stageOf, ws: ws}
	rep := &Report{Seq: a.seq}
	res := &Result{Report: rep, a: a, opts: opts, stageOf: stageOf}
	if res.Stages, rep.Stages, err = st.realize(); err != nil {
		return nil, err
	}

	for i, ci := range st.cuts {
		cr := CutReport{
			Index:         ci.index,
			Slots:         ci.numSlots,
			Interferences: ci.interferences,
		}
		for _, o := range ci.objects {
			if o.isCtrl {
				cr.Ctrls++
			} else {
				cr.Values++
			}
		}
		if i < len(balanceResults) {
			br := balanceResults[i]
			cr.Weight = br.Weight
			cr.Cost = br.Cost
			cr.Feasible = br.Feasible
			cr.Iterations = br.Iterations
		}
		rep.Cuts = append(rep.Cuts, cr)
	}

	// Longest stage, speedup, overhead.
	longest := 0
	for i, s := range rep.Stages {
		if s.Cost.Total > rep.Stages[longest].Cost.Total {
			longest = i
		}
	}
	rep.LongestStage = longest + 1
	ls := rep.Stages[longest].Cost
	if ls.Total > 0 {
		rep.Speedup = float64(rep.Seq.Total) / float64(ls.Total)
	}
	if ls.Proc() > 0 {
		rep.Overhead = float64(ls.Tx) / float64(ls.Proc())
	}
	return res, nil
}

// realize computes and packs the live set of every cut of st's stage
// assignment, then builds and validates one program per stage.
func (st *partitionState) realize() ([]*ir.Program, []StageReport, error) {
	a, opts := st.a, st.opts
	var prev *cutInfo
	for j := 1; j < opts.Stages; j++ {
		prev = st.buildCut(j, a.ps, prev)
		st.cuts = append(st.cuts, prev)
	}
	stages := make([]*ir.Program, 0, opts.Stages)
	for k := 1; k <= opts.Stages; k++ {
		sf, err := st.realizeStage(k)
		if err != nil {
			return nil, nil, err
		}
		stages = append(stages, &ir.Program{
			Name:   fmt.Sprintf("%s.stage%d", a.prog.Name, k),
			Arrays: a.prog.Arrays,
			Func:   sf,
		})
	}
	// Validated before they are costed: funcCost walks each stage's CFG.
	if err := ValidateStages(stages); err != nil {
		return nil, nil, fmt.Errorf("internal error: %w", err)
	}
	reports := make([]StageReport, 0, opts.Stages)
	for k, sp := range stages {
		nInstr := 0
		for _, b := range sp.Func.Blocks {
			nInstr += len(b.Instrs)
		}
		reports = append(reports, StageReport{
			Stage:  k + 1,
			Cost:   st.ws.funcCost(sp.Func, opts.Arch, opts.Channel),
			Blocks: len(sp.Func.Blocks),
			Instrs: nInstr,
		})
	}
	return stages, reports, nil
}

// Unit is one program of a coarsened cut: cut stages First..Last (1-based,
// First == Last for a lone stage) realized as a single stage, with its
// worst-case path cost under the cut's cost model.
type Unit struct {
	First, Last int
	Prog        *ir.Program
	Cost        PathCost
}

// Coarsen realizes the result's stage assignment with the cuts fuse names
// un-made: bit k set un-makes cut k+1 (between stages k+1 and k+2), so each
// maximal run of stages joined by un-made cuts becomes one program — no
// transmission, relay copy or control-object switch is generated for a cut
// that is not there. Bits past the last cut are ignored. Fuse mask 0
// reproduces Stages; all ones is the D=1 realization. The units run as a
// pipeline of their own (interp.RunPipeline, the serve runtime) with the
// trace of the unpartitioned program. Coarsen mutates neither the Result nor
// its Analysis and may be called concurrently.
func (r *Result) Coarsen(fuse uint64) ([]Unit, error) {
	// unitOf[s] is the 1-based unit of cut stage s.
	unitOf := make([]int, r.opts.Stages+1)
	var units []Unit
	for s := 1; s <= r.opts.Stages; s++ {
		if s == 1 || fuse>>(s-2)&1 == 0 {
			units = append(units, Unit{First: s})
		}
		units[len(units)-1].Last = s
		unitOf[s] = len(units)
	}
	ws := r.a.idle.Get().(*workspace)
	defer r.a.idle.Put(ws)
	st := &partitionState{opts: r.opts, a: r.a, an: r.a.an, stageOf: make([]int, len(r.stageOf)), ws: ws}
	st.opts.Stages = len(units)
	for u, s := range r.stageOf {
		st.stageOf[u] = unitOf[s]
	}
	progs, reports, err := st.realize()
	if err != nil {
		return nil, err
	}
	for i := range units {
		units[i].Prog, units[i].Cost = progs[i], reports[i].Cost
	}
	return units, nil
}
