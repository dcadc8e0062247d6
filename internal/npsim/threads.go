package npsim

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/interp"
	"repro/internal/ir"
)

// ThreadSim is the fine-grained counterpart of Simulate: each processing
// engine runs its hardware threads explicitly. A thread owns one iteration
// at a time; the engine issues one instruction per cycle, rotating over
// ready threads with zero-overhead context switching (the IXP model). ALU
// instructions occupy issue slots; memory and IO instructions additionally
// park the thread for the operation's latency while OTHER threads keep
// issuing — which is exactly how the IXP hides memory latency and why the
// paper balances instruction counts rather than latencies.
//
// The model is deterministic: per-iteration instruction tapes are recorded
// by functional execution first, then replayed under the timing model.
type threadState struct {
	iter    int   // iteration being processed (-1 idle)
	pc      int   // index into the iteration's tape
	readyAt int64 // cycle the thread may issue next
}

// tapeEntry is one instruction of a stage-iteration's recorded stream.
type tapeEntry struct {
	issue int64 // issue occupancy in cycles (instruction count weight)
	park  int64 // extra latency the issuing thread waits out (not the PE)
}

// ThreadSimResult extends the coarse results with issue-level detail.
type ThreadSimResult struct {
	Iterations      int
	Makespan        int64
	CyclesPerPacket float64
	// IssueBusy[k] is the fraction of cycles PE k issued an instruction.
	IssueBusy []float64
	// AvgThreadsBusy[k] is the mean number of in-flight iterations.
	AvgThreadsBusy []float64
	Trace          []interp.Event
}

// SimulateThreads runs the thread-level model. Ring capacities bound the
// number of iterations in flight between adjacent engines; ThreadsPerPE
// bounds the iterations in flight inside one engine.
func SimulateThreads(stages []*ir.Program, world *interp.World, iters int, cfg Config) (*ThreadSimResult, error) {
	if cfg.Arch == nil {
		cfg.Arch = costmodel.Default()
	}
	if cfg.ThreadsPerPE <= 0 {
		cfg.ThreadsPerPE = 8
	}
	if cfg.RingCapacity <= 0 {
		cfg.RingCapacity = 8
	}
	D := len(stages)

	// Record per-iteration tapes functionally.
	latencyArch := *cfg.Arch
	latencyArch.Mode = costmodel.WeightLatency
	issueArch := *cfg.Arch
	issueArch.Mode = costmodel.WeightInstrs

	tapes := make([][][]tapeEntry, D) // [stage][iter][]entry
	for k := range tapes {
		tapes[k] = make([][]tapeEntry, iters)
	}
	var tape []tapeEntry
	if err := run(stages, world, iters, func(in *ir.Instr) {
		issue := int64(issueArch.InstrWeight(in, cfg.Channel))
		lat := int64(latencyArch.InstrWeight(in, cfg.Channel))
		tape = append(tape, tapeEntry{issue: issue, park: max(lat-issue, 0)})
	}, func(i, k int) {
		tapes[k][i], tape = tape, nil
	}); err != nil {
		return nil, err
	}
	res := &ThreadSimResult{
		Iterations:     iters,
		IssueBusy:      make([]float64, D),
		AvgThreadsBusy: make([]float64, D),
		Trace:          world.Trace,
	}
	if iters == 0 {
		return res, nil
	}

	// Timing: cycle-driven engines with explicit threads.
	type peState struct {
		threads   []threadState
		nextIter  int   // next iteration this PE may admit
		issueBusy int64 // cycles spent issuing
		busyArea  int64 // sum over cycles of in-flight thread count
	}
	pes := make([]peState, D)
	for k := range pes {
		pes[k].threads = make([]threadState, cfg.ThreadsPerPE)
		for t := range pes[k].threads {
			pes[k].threads[t].iter = -1
		}
	}
	// doneAt[k][i]: cycle iteration i left stage k (its live set is then
	// available downstream). admittedBy[k] counts admissions per stage.
	doneAt := make([][]int64, D)
	for k := range doneAt {
		doneAt[k] = make([]int64, iters)
		for i := range doneAt[k] {
			doneAt[k][i] = -1
		}
	}
	completed := 0
	var cycle int64
	const safetyCap = int64(1) << 40

	for completed < iters && cycle < safetyCap {
		for k := 0; k < D; k++ {
			pe := &pes[k]
			// Admit new iterations into idle threads.
			for t := range pe.threads {
				th := &pe.threads[t]
				if th.iter >= 0 || pe.nextIter >= iters {
					continue
				}
				i := pe.nextIter
				// Input available? Stage 0: always (saturated arrivals);
				// else the upstream stage must have finished iteration i.
				if k > 0 && (doneAt[k-1][i] < 0 || doneAt[k-1][i] > cycle) {
					continue
				}
				// Ring slot backpressure: at most RingCapacity finished-
				// but-unconsumed items between k-1 and k is implied by the
				// admission itself; additionally, do not run ahead of the
				// downstream ring: iteration i may start at stage k only
				// if iteration i-RingCapacity has been admitted downstream.
				if k < D-1 && i >= cfg.RingCapacity {
					if pes[k+1].nextIter <= i-cfg.RingCapacity {
						continue
					}
				}
				th.iter = i
				th.pc = 0
				th.readyAt = cycle
				pe.nextIter++
			}
			// Issue one instruction from a ready thread (round-robin by
			// lowest iteration first for determinism).
			best := -1
			for t := range pe.threads {
				th := &pe.threads[t]
				if th.iter < 0 || th.readyAt > cycle {
					continue
				}
				if best < 0 || th.iter < pe.threads[best].iter {
					best = t
				}
			}
			inFlight := int64(0)
			for t := range pe.threads {
				if pe.threads[t].iter >= 0 {
					inFlight++
				}
			}
			pe.busyArea += inFlight
			if best >= 0 {
				th := &pe.threads[best]
				tape := tapes[k][th.iter]
				if th.pc >= len(tape) {
					// Empty tape (stage had nothing to do): finish now.
					doneAt[k][th.iter] = cycle
					if k == D-1 {
						completed++
					}
					th.iter = -1
					continue
				}
				e := tape[th.pc]
				th.pc++
				pe.issueBusy += e.issue
				th.readyAt = cycle + e.issue + e.park
				if th.pc >= len(tape) {
					doneAt[k][th.iter] = th.readyAt
					if k == D-1 {
						completed++
					}
					th.iter = -1
				}
			}
		}
		cycle++
	}
	if cycle >= safetyCap {
		return nil, fmt.Errorf("npsim: thread simulation did not converge")
	}

	res.Makespan = doneAt[D-1][iters-1]
	for k := range pes {
		if res.Makespan > 0 {
			res.IssueBusy[k] = float64(pes[k].issueBusy) / float64(res.Makespan)
			res.AvgThreadsBusy[k] = float64(pes[k].busyArea) / float64(res.Makespan)
		}
	}
	half := iters / 2
	if half >= 1 && iters-1 > half {
		span := doneAt[D-1][iters-1] - doneAt[D-1][half]
		res.CyclesPerPacket = float64(span) / float64(iters-1-half)
	} else {
		res.CyclesPerPacket = float64(res.Makespan) / float64(iters)
	}
	return res, nil
}
