package core

import (
	"fmt"

	"repro/internal/errs"
	"repro/internal/ir"
	"repro/internal/parallel"
)

// ExploreOptions configures the degree exploration.
type ExploreOptions struct {
	// Budget is the worst-case per-packet instruction budget a stage may
	// spend (the paper: network applications "have very stringent
	// performance budgets (cycles per packet)" that must be statically
	// guaranteed).
	Budget int64
	// Base carries the remaining partitioning options.
	Base Options
}

// explorePEs is the number of processing engines Explore searches: degrees
// 1..explorePEs.
const explorePEs = 10

// Validate rejects out-of-range exploration options as errs.ErrBadOption.
// A zero Budget means "unset" here (a configuration may be assembled before
// anyone calls Explore, which itself requires a budget).
func (o *ExploreOptions) Validate() error {
	if o.Budget < 0 {
		return fmt.Errorf("explore: %w: Budget %d", errs.ErrBadOption, o.Budget)
	}
	return o.Base.Validate()
}

// ExploreResult is the compilation result the exploration selected.
type ExploreResult struct {
	// Degree is the selected pipelining degree (number of PEs used).
	Degree int
	// Met reports whether the budget is statically guaranteed; when false,
	// Result is the best (lowest worst-case stage cost) candidate found.
	Met bool
	// Result is the selected partition.
	Result *Result
	// Candidates records the longest-stage cost at every degree up to the
	// selected one (all degrees when the budget cannot be met).
	Candidates []CandidateCost
}

// CandidateCost is one explored configuration.
type CandidateCost struct {
	Degree       int
	LongestStage int64
	Feasible     bool // all cuts met the balance band
}

// Explore implements the compiler driver sketched in the paper's section
// 2.2: it partitions the PPS at increasing pipelining degrees and selects
// the smallest number of processing engines whose statically guaranteed
// worst-case stage cost fits the budget. This mirrors the product
// compiler's static evaluation ("selects one compilation result based on a
// static evaluation of the performance and the performance requirements");
// the full pipelining-versus-multiprocessing search of [7] remains out of
// scope, as in the paper.
//
// The program is analyzed once; candidate degrees share the analysis and
// are evaluated on up to GOMAXPROCS goroutines.
func Explore(prog *ir.Program, opts ExploreOptions) (*ExploreResult, error) {
	a, err := Analyze(prog, opts.Base.Arch)
	if err != nil {
		return nil, err
	}
	return a.Explore(opts)
}

// Explore runs the degree exploration against an existing analysis. The
// outcome is deterministic: whatever the core count, the selected degree,
// its Result, and the Candidates log are identical to a sequential
// smallest-degree-first search.
func (a *Analysis) Explore(opts ExploreOptions) (*ExploreResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Budget == 0 {
		return nil, fmt.Errorf("explore: %w: Budget unset (Explore needs a positive per-packet budget)", errs.ErrBadOption)
	}
	results := make([]*Result, explorePEs)
	costs := make([]CandidateCost, explorePEs)
	candidate := func(i int) error {
		o := opts.Base
		o.Stages = i + 1
		res, err := a.Partition(o)
		if err != nil {
			return fmt.Errorf("explore degree %d: %w", i+1, err)
		}
		feasible := true
		for _, c := range res.Report.Cuts {
			feasible = feasible && c.Feasible
		}
		longest := res.Report.Stages[res.Report.LongestStage-1].Cost.Total
		results[i], costs[i] = res, CandidateCost{Degree: i + 1, LongestStage: longest, Feasible: feasible}
		return nil
	}

	// Cut ascending degrees one chunk of cores at a time and stop after the
	// first chunk that holds a fit: one core is the smallest-degree-first
	// search, more cut at most one chunk past the fit.
	ex := &ExploreResult{}
	chunk := parallel.Workers(explorePEs)
	for lo := 0; lo < explorePEs; lo += chunk {
		hi := min(lo+chunk, explorePEs)
		if err := parallel.ForEach(hi-lo, func(i int) error { return candidate(lo + i) }); err != nil {
			return nil, err
		}
		for i := lo; i < hi; i++ {
			ex.Candidates = append(ex.Candidates, costs[i])
			if costs[i].LongestStage <= opts.Budget {
				ex.Degree, ex.Met, ex.Result = i+1, true, results[i]
				return ex, nil
			}
		}
	}

	// Budget unmet anywhere: best effort — the cheapest longest stage,
	// smallest degree on ties.
	best := 0
	for i := 1; i < explorePEs; i++ {
		if costs[i].LongestStage < costs[best].LongestStage {
			best = i
		}
	}
	ex.Degree = best + 1
	ex.Result = results[best]
	return ex, nil
}
