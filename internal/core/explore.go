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
	// MaxPEs bounds the processing engines available (default 10).
	MaxPEs int
	// Workers bounds the goroutines evaluating candidate degrees:
	// 0 selects one per CPU (runtime.GOMAXPROCS(0)), 1 runs sequentially.
	// The selected result is identical for every worker count.
	Workers int
	// Base carries the remaining partitioning options.
	Base Options
}

// Validate rejects out-of-range exploration options as errs.ErrBadOption.
// A zero Budget or MaxPEs means "unset" here (a configuration may be
// assembled before anyone calls Explore, which itself requires a budget).
func (o *ExploreOptions) Validate() error {
	if o.Budget < 0 {
		return fmt.Errorf("explore: %w: Budget %d", errs.ErrBadOption, o.Budget)
	}
	if o.MaxPEs < 0 {
		return fmt.Errorf("explore: %w: MaxPEs %d", errs.ErrBadOption, o.MaxPEs)
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
// are evaluated on opts.Workers goroutines.
func Explore(prog *ir.Program, opts ExploreOptions) (*ExploreResult, error) {
	a, err := Analyze(prog, opts.Base.Arch)
	if err != nil {
		return nil, err
	}
	return a.Explore(opts)
}

// Explore runs the degree exploration against an existing analysis. The
// outcome is deterministic: whatever the worker count, the selected degree,
// its Result, and the Candidates log are identical to a sequential
// smallest-degree-first search.
func (a *Analysis) Explore(opts ExploreOptions) (*ExploreResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Budget == 0 {
		return nil, fmt.Errorf("explore: %w: Budget unset (Explore needs a positive per-packet budget)", errs.ErrBadOption)
	}
	if opts.MaxPEs == 0 {
		opts.MaxPEs = 10
	}

	candidate := func(d int) (*Result, CandidateCost, error) {
		o := opts.Base
		o.Stages = d
		res, err := a.Partition(o)
		if err != nil {
			return nil, CandidateCost{}, fmt.Errorf("explore degree %d: %w", d, err)
		}
		longest := res.Report.Stages[res.Report.LongestStage-1].Cost.Total
		feasible := true
		for _, c := range res.Report.Cuts {
			if !c.Feasible {
				feasible = false
			}
		}
		return res, CandidateCost{Degree: d, LongestStage: longest, Feasible: feasible}, nil
	}

	ex := &ExploreResult{}
	results := make([]*Result, opts.MaxPEs)
	costs := make([]CandidateCost, opts.MaxPEs)

	if parallel.Workers(opts.Workers, opts.MaxPEs) == 1 {
		// Sequential: evaluate ascending degrees, stopping at the first
		// one that meets the budget (the seed driver's behaviour).
		for d := 1; d <= opts.MaxPEs; d++ {
			res, cc, err := candidate(d)
			if err != nil {
				return nil, err
			}
			results[d-1], costs[d-1] = res, cc
			ex.Candidates = append(ex.Candidates, cc)
			if cc.LongestStage <= opts.Budget {
				ex.Degree = d
				ex.Met = true
				ex.Result = res
				return ex, nil
			}
		}
	} else {
		// Parallel: evaluate every degree concurrently, then select the
		// smallest fitting one and truncate the candidate log so the
		// observable result matches the sequential search exactly.
		err := parallel.ForEach(opts.MaxPEs, opts.Workers, func(i int) error {
			res, cc, err := candidate(i + 1)
			if err != nil {
				return err
			}
			results[i], costs[i] = res, cc
			return nil
		})
		if err != nil {
			return nil, err
		}
		for d := 1; d <= opts.MaxPEs; d++ {
			ex.Candidates = append(ex.Candidates, costs[d-1])
			if costs[d-1].LongestStage <= opts.Budget {
				ex.Degree = d
				ex.Met = true
				ex.Result = results[d-1]
				return ex, nil
			}
		}
	}

	// Budget unmet anywhere: best effort — the cheapest longest stage,
	// smallest degree on ties.
	best := 0
	for i := 1; i < opts.MaxPEs; i++ {
		if costs[i].LongestStage < costs[best].LongestStage {
			best = i
		}
	}
	ex.Degree = best + 1
	ex.Result = results[best]
	return ex, nil
}
