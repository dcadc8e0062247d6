package main

import (
	"fmt"
	"math"
	stdruntime "runtime"
	"time"

	"repro"
	"repro/internal/interp"
	"repro/internal/netbench"
)

// maxDegree is the deepest cut a sweep asks for; headlineDegree is the
// degree the paper's headline speedup is quoted at.
const (
	maxDegree      = 10
	headlineDegree = 9
	verifyPackets  = 64
)

// sweepResult is one pass of Partition at D=1..maxDegree over one
// analysis: the pipelines, and how long each cut took.
type sweepResult struct {
	pipes  []*repro.Pipeline // index d-1; nil where Partition failed
	perCut []time.Duration
	total  time.Duration
}

func sweepOne(h *harness, an *repro.Analysis, label string) sweepResult {
	var res sweepResult
	res.total = h.span("core.partition."+label, func() {
		for d := 1; d <= maxDegree; d++ {
			t0 := time.Now()
			pipe, err := an.Partition(repro.WithStages(d))
			res.perCut = append(res.perCut, time.Since(t0))
			if err != nil {
				h.problem("%s: partition %s at D=%d: %v", h.workload, label, d, err)
			}
			res.pipes = append(res.pipes, pipe)
		}
	})
	return res
}

// parts records the sweep's cuts as the parts of cut_sweep_ms.
func (res *sweepResult) parts(h *harness, label string) {
	for i, d := range res.perCut {
		h.part("cut_sweep_ms", fmt.Sprintf("%s.d%d", label, i+1), ms(d))
	}
}

// ownSweep gives a serve workload one sample of its partitioner-side
// numbers, on the PPS it serves: the wall time of cutting it at D=1..10
// from one analysis (what an autotuner re-planning this pipeline pays),
// and its static speedup at D=9 — exact across runs.
func ownSweep(h *harness, an *repro.Analysis) {
	settle()
	res := sweepOne(h, an, "own")
	h.samples.add("cut_sweep_ms", ms(res.total))
	res.parts(h, "own")
	if p := res.pipes[headlineDegree-1]; p != nil {
		h.samples.add("static_speedup_d9", p.Report().Speedup)
	}
}

// cutSweepWorkload is the workload with no serving in it: the six PPS are
// compiled and analyzed (its set-up), then cut at D=1..10 sweep after
// sweep, and every cut of every sweep is run for 64 packets on the
// interpreter against the sequential oracle.
func cutSweepWorkload(h *harness) error {
	type unit struct {
		key  string
		prog *repro.Program
		an   *repro.Analysis
	}
	units := make([]unit, len(sweepPPS))
	// Set-up is everything before the first timed cut: compile and analyze
	// the six PPS. Once here, cold, then once per sweep.
	setup := func() error {
		var err error
		var dc, da time.Duration
		total := h.span("setup", func() {
			for j, p := range sweepPPS {
				pps, ok := netbench.ByName(p.name)
				if !ok {
					err = fmt.Errorf("unknown PPS %q", p.name)
					return
				}
				u := unit{key: p.key}
				d := h.span("ppc.compile."+p.key, func() { u.prog, err = repro.Compile(pps.Source) })
				if err != nil {
					return
				}
				h.part("setup_s", "compile."+p.key, d.Seconds())
				dc += d
				d = h.span("core.analyze."+p.key, func() { u.an, err = repro.Analyze(u.prog) })
				if err != nil {
					return
				}
				h.part("setup_s", "analyze."+p.key, d.Seconds())
				da += d
				units[j] = u
			}
		})
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		h.samples.add("setup_s", total.Seconds())
		h.samples.add("ppc.compile_ms", ms(dc))
		h.samples.add("core.analyze_ms", ms(da))
		return nil
	}
	if err := setup(); err != nil {
		return err
	}

	// The oracle: each unpartitioned program over its 64 seeded packets.
	pkts := make([][][]byte, len(units))
	seq := make([][]repro.Event, len(units))
	for j, u := range units {
		pkts[j] = genCycle(h.opt.seed, u.key == "ip")[:verifyPackets]
		var err error
		d := h.span("interp.oracle."+u.key, func() {
			seq[j], err = interp.RunSequential(u.prog.Clone(), netbench.NewWorld(pkts[j]), verifyPackets)
		})
		if err != nil {
			return fmt.Errorf("oracle %s: %w", u.key, err)
		}
		h.samples.add("interp.seq_ns_per_pkt", float64(d)/verifyPackets)
	}

	// The two metrics this workload borrows from the serve side, from the
	// same parts: the median over the sixty cuts of one cut's time, and
	// the packets the interpreter check verifies per second.
	h.derive["lat_p50_us"] = func(s samples) float64 {
		var cuts []float64
		for _, key := range h.parts["cut_sweep_ms"] {
			cuts = append(cuts, 1000*bestDecile(s[key], "lower"))
		}
		return median(cuts)
	}
	h.derive["pkt_per_s"] = func(s samples) float64 {
		return safeDiv(float64(verifyPackets*len(h.parts["verify_s"])), h.bestSum(s, "verify_s"))
	}

	minSweeps := 15
	if h.opt.short {
		minSweeps = 2
	}
	ref := newHostRef()
	return h.repeat(h.budget(0.92), minSweeps, func(int) error {
		ref.sample(h)
		ref.sample(h)
		if err := setup(); err != nil {
			return err
		}
		var sweep time.Duration
		var perCut []float64
		results := make([]sweepResult, len(units))
		for j, u := range units {
			results[j] = sweepOne(h, u.an, u.key)
			results[j].parts(h, u.key)
			sweep += results[j].total
			for _, d := range results[j].perCut {
				perCut = append(perCut, us(d))
			}
		}
		h.samples.add("cut_sweep_ms", ms(sweep))
		h.samples.add("core.partition_ms", ms(sweep))
		h.samples.add("lat_p50_us", median(perCut))

		// Exact counts: the paper's static result at D=9, and what the
		// balanced min-cut search spent getting every cut of the sweep.
		logSum, iters, infeasible := 0.0, 0, 0
		for j, u := range units {
			for _, p := range results[j].pipes {
				if p == nil {
					continue
				}
				for _, c := range p.Report().Cuts {
					iters += c.Iterations
					if !c.Feasible {
						infeasible++
					}
				}
			}
			if p := results[j].pipes[headlineDegree-1]; p != nil {
				rep := p.Report()
				h.samples.add("core.speedup_d9."+u.key, rep.Speedup)
				h.samples.add("core.overhead_d9."+u.key, rep.Overhead)
				logSum += math.Log(rep.Speedup)
			}
		}
		h.samples.add("static_speedup_d9", math.Exp(logSum/float64(len(units))))
		h.samples.add("core.mincut_iterations", float64(iters))
		h.samples.add("core.infeasible_cuts", float64(infeasible))

		// Correctness gate: every cut against the sequential oracle. Its
		// interpreter work is what this workload has for packets per
		// second and bytes per packet.
		var ms0, ms1 stdruntime.MemStats
		verifyTook := make([][maxDegree]time.Duration, len(units))
		stdruntime.ReadMemStats(&ms0)
		verified := 0
		d := h.span("verify", func() {
			for j, u := range units {
				for i, p := range results[j].pipes {
					h.attempted++
					if p == nil {
						h.failed++
						continue
					}
					t0 := time.Now()
					got, err := interp.RunPipeline(p.Stages(), netbench.NewWorld(pkts[j]), verifyPackets)
					if err == nil {
						if diff := interp.TraceEqual(seq[j], got); diff != "" {
							err = fmt.Errorf("diverges from the oracle: %s", diff)
						}
					}
					verifyTook[j][i] = time.Since(t0)
					if err != nil {
						h.failed++
						h.problem("%s: %s at D=%d: %v", h.workload, u.key, i+1, err)
						continue
					}
					verified += verifyPackets
				}
			}
		})
		stdruntime.ReadMemStats(&ms1)
		for j, u := range units {
			for i, d := range verifyTook[j] {
				if d > 0 {
					h.part("verify_s", fmt.Sprintf("%s.d%d", u.key, i+1), d.Seconds())
				}
			}
		}
		if verified == 0 {
			return fmt.Errorf("cut-sweep: no cut could be verified")
		}
		h.samples.add("pkt_per_s", float64(verified)/d.Seconds())
		h.samples.add("alloc_b_per_pkt", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(verified))
		return nil
	})
}
