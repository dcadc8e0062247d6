// Package npsim is a deterministic, cycle-approximate simulator of an
// IXP2800-style network processor running a software pipeline: one
// processing engine (PE) per pipeline stage, eight zero-overhead hardware
// threads per PE, and hardware rings between neighboring engines
// (register-based nearest-neighbor rings, or scratch-memory rings).
//
// The model is a blocking tandem queue. Per-iteration service demand is
// measured by functionally executing each stage (via the interpreter, which
// also yields the observable trace for verification); hardware threads are
// assumed to hide memory latency, so a PE retires roughly one instruction
// per cycle and each stage behaves as a single server whose service time is
// the iteration's executed instruction weight. A stage starts iteration i
// when (a) the previous iteration has left it, (b) the live set for i has
// arrived from upstream, and (c) there is space in its outgoing ring
// (backpressure).
package npsim

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/interp"
	"repro/internal/ir"
)

// Config shapes the simulated machine.
type Config struct {
	// ThreadsPerPE is kept for reporting; the timing model assumes it is
	// large enough to hide memory latency (the IXP has 8).
	ThreadsPerPE int
	// RingCapacity is the entry count of each inter-stage ring.
	RingCapacity int
	// Channel picks the ring kind between neighboring engines.
	Channel costmodel.ChannelKind
	// Arch is the instruction cost model.
	Arch *costmodel.Arch
}

// run functionally executes iters iterations of the pipeline on one
// interp.Chain, all stages sharing persistent state: onInstr meters every
// instruction a stage executes (one stage runs at a time), and after(i, k)
// is called once stage k has run iteration i. Both simulators measure
// their demand this way.
func run(stages []*ir.Program, world *interp.World, iters int, onInstr func(in *ir.Instr), after func(i, k int)) error {
	if err := interp.CheckPipeline(stages, world); err != nil {
		return fmt.Errorf("npsim: %w", err)
	}
	c := interp.Chain[*interp.Runner]{Stages: interp.NewStageRunners(stages, world), After: after}
	for _, r := range c.Stages {
		r.OnInstr = onInstr
	}
	if err := c.Run(iters); err != nil {
		return fmt.Errorf("npsim: %w", err)
	}
	return nil
}

// DefaultConfig returns the IXP2800-flavored configuration.
func DefaultConfig() Config {
	return Config{
		ThreadsPerPE: 8,
		RingCapacity: 8,
		Channel:      costmodel.NNRing,
		Arch:         costmodel.Default(),
	}
}

// Result reports a simulation run.
type Result struct {
	Iterations int
	// Makespan is the cycle at which the last iteration left the last
	// stage.
	Makespan int64
	// CyclesPerPacket is the steady-state inter-departure interval at the
	// last stage, measured over the second half of the run.
	CyclesPerPacket float64
	// Throughput is 1/CyclesPerPacket, in packets per cycle.
	Throughput float64
	// StageBusy[k] is the fraction of the makespan stage k spent serving.
	StageBusy []float64
	// StageService[k] is the mean service demand of stage k in cycles.
	StageService []float64
	// Trace is the observable event trace of the functional execution.
	Trace []interp.Event
}

// Simulate runs iters iterations of the pipeline against world, measuring
// both behaviour and timing. Stages share persistent state (as on hardware,
// where flow state lives in shared SRAM but is touched by one stage only).
// Packets are always available at the first stage, so the timing is the
// saturated pipeline's; zero iterations time nothing.
func Simulate(stages []*ir.Program, world *interp.World, iters int, cfg Config) (*Result, error) {
	if cfg.Arch == nil {
		cfg.Arch = costmodel.Default()
	}
	if cfg.RingCapacity <= 0 {
		cfg.RingCapacity = 8
	}
	D := len(stages)

	// Functional execution with service metering.
	service := make([][]int64, D)
	for k := range service {
		service[k] = make([]int64, iters)
	}
	var demand int64
	if err := run(stages, world, iters, func(in *ir.Instr) {
		demand += int64(cfg.Arch.InstrWeight(in, cfg.Channel))
	}, func(i, k int) {
		service[k][i], demand = demand, 0
	}); err != nil {
		return nil, err
	}
	res := &Result{
		Iterations:   iters,
		StageBusy:    make([]float64, D),
		StageService: make([]float64, D),
		Trace:        world.Trace,
	}
	if iters == 0 {
		return res, nil
	}

	// Blocking tandem-queue timing.
	start := make([][]int64, D)
	finish := make([][]int64, D)
	for k := 0; k < D; k++ {
		start[k] = make([]int64, iters)
		finish[k] = make([]int64, iters)
	}
	for i := 0; i < iters; i++ {
		for k := 0; k < D; k++ {
			var t int64
			if k > 0 {
				t = finish[k-1][i] // live set available
			}
			if i > 0 && finish[k][i-1] > t {
				t = finish[k][i-1] // engine busy
			}
			// Backpressure: the outgoing ring must have space, i.e.
			// iteration i-RingCapacity must have started downstream.
			if k < D-1 && i >= cfg.RingCapacity {
				if s := start[k+1][i-cfg.RingCapacity]; s > t {
					t = s
				}
			}
			start[k][i] = t
			finish[k][i] = t + service[k][i]
		}
	}

	res.Makespan = finish[D-1][iters-1]
	for k := 0; k < D; k++ {
		var busy, total int64
		for i := 0; i < iters; i++ {
			busy += service[k][i]
			total += service[k][i]
		}
		if res.Makespan > 0 {
			res.StageBusy[k] = float64(busy) / float64(res.Makespan)
		}
		res.StageService[k] = float64(total) / float64(iters)
	}
	// Steady-state departure interval over the second half.
	half := iters / 2
	if half >= 1 && iters-half >= 2 {
		span := finish[D-1][iters-1] - finish[D-1][half]
		res.CyclesPerPacket = float64(span) / float64(iters-1-half)
	} else {
		res.CyclesPerPacket = float64(res.Makespan) / float64(iters)
	}
	if res.CyclesPerPacket > 0 {
		res.Throughput = 1 / res.CyclesPerPacket
	}
	return res, nil
}
