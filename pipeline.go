package repro

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/runtime"
)

// Pipeline is the executable product of Partition: the realized stage
// programs plus the static report, with one method per way to run them —
// the sequential oracle (Run) and the concurrent host runtime (Serve).
// A Pipeline is immutable and safe for concurrent use; each execution
// method builds its own run state. The mutable state is two atomically
// published handles — the counters of the most recent Serve run (Snapshot)
// and the live realization plan (Plan) — and the cache of served shapes.
type Pipeline struct {
	stages []*Program
	report *Report
	res    *core.Result // the cut itself; Coarsen seam of fusion
	cfg    config
	// shapes caches, per set of fused cuts, the cut realized without them,
	// validated and classified once (shape, fusion.go).
	mu     sync.Mutex
	shapes map[uint64]*served
	live   atomic.Pointer[runtime.Live]
	plan   atomic.Pointer[Plan]
}

// newPipeline wraps a core result with the configuration it was cut under,
// so execution defaults (ring kind, capacities) follow the partition.
func newPipeline(res *core.Result, cfg config) *Pipeline {
	return &Pipeline{stages: res.Stages, report: res.Report, res: res, cfg: cfg, shapes: map[uint64]*served{}}
}

// Stages returns the realized per-stage programs, connected by live-set
// transmissions (OpSendLS/OpRecvLS): the D-way cut, which Run executes.
// Serve runs them too unless Plan().FusedCuts names cuts it un-made, in
// which case each run of fused stages is served as one re-realized program.
// The slice and its programs must be treated as read-only.
func (p *Pipeline) Stages() []*Program { return p.stages }

// Degree returns the pipelining degree D.
func (p *Pipeline) Degree() int { return len(p.stages) }

// Report returns the static measurement report (per-stage costs, per-cut
// live sets, speedup and overhead metrics).
func (p *Pipeline) Report() *Report { return p.report }

// Plan returns the pipeline's realization: the configuration the most
// recent Serve ran (before any, the one the Pipeline's own options describe),
// the fusion verdicts behind it and the cost model's price for it — safe to
// call from any goroutine, including while a serve is in flight. The plan is
// worked out on first use: a partition that is never served or asked for its
// plan pays for no layout and no coarsened realization.
func (p *Pipeline) Plan() *Plan {
	if plan := p.plan.Load(); plan != nil {
		return plan
	}
	plan, _, _ := p.realize(p.cfg)
	p.plan.CompareAndSwap(nil, plan)
	return p.plan.Load()
}

// Run executes the pipeline on the sequential oracle: every iteration runs
// to completion through all stages before the next begins, which preserves
// the sequential trace order exactly. It runs one iteration per input
// packet of world (override with WithIterations) and returns the
// observable trace. Cancellation is checked between iterations.
func (p *Pipeline) Run(ctx context.Context, world *World, opts ...Option) ([]Event, error) {
	cfg, err := p.cfg.within("Run", inRun, opts)
	if err != nil {
		return nil, err
	}
	if len(p.stages) == 0 {
		return nil, ErrNoStages
	}
	if world == nil {
		return nil, ErrNilWorld
	}
	iters := cfg.iters
	if iters == 0 {
		iters = len(world.Packets)
	}
	c := interp.Chain[*interp.Runner]{Stages: interp.NewStageRunners(p.stages, world)}
	for range iters {
		if err := ctx.Err(); err != nil {
			return world.Trace, err
		}
		if err := c.Run(1); err != nil {
			return nil, err
		}
	}
	return world.Trace, nil
}

// Serve runs the pipeline on the host-native streaming runtime: one
// goroutine per stage, bounded rings (WithRing) between neighbors, batched
// transmissions (WithBatch), serving src until it is exhausted or ctx is
// canceled. The environment (route tables, queues) comes from WithWorld.
// To serve real traffic, pass nil for src and attach a network-facing
// source with WithSource (see OpenSource): the head stage then makes one
// Pull per batch and closes the batch with whatever the socket / capture
// had ready, backpressure propagates into the source, and the boundary
// counters appear in Snapshot().Ingest and the returned Metrics.Ingest. A
// source that fails ends the stream: what it handed over drains, and Serve
// returns the Metrics with the source's error wrapped.
// With WithShards(P), stages that keep no state run as P parallel
// replicas that take whole batches in turn, and the output is read back
// in the same turn. Cuts the cost model finds
// not worth their ring are un-made first (WithFusion), and Plan reports the
// shape that was served and why.
// The pipeline's output — every retired iteration's events, in exact
// sequential-oracle order — leaves through one Sink as the serve runs
// (WithSink: discard, a digest, a pcap file, or your own); by default it is
// kept in memory and returned as Metrics.Trace. The returned Metrics carry
// measured throughput and per-stage counters (aggregated across replicas
// when sharded). A serve its sink ended returns the sink's error wrapped,
// with the Metrics of what it delivered.
func (p *Pipeline) Serve(ctx context.Context, src Source, opts ...Option) (*Metrics, error) {
	cfg, err := p.cfg.within("Serve", inServe, opts)
	if err != nil {
		return nil, err
	}
	// A caller's Source is lent to the runtime packet by packet; WithSource's
	// is pulled a batch at a time and exposes its boundary counters
	// (Snapshot.Ingest, Metrics.Ingest, registry gauges).
	var in runtime.Source
	switch {
	case cfg.source != nil && src != nil:
		return nil, fmt.Errorf("repro: %w: both the positional source and WithSource supply the packet stream; pass nil for one of them",
			ErrConflictingOptions)
	case cfg.source != nil:
		stats := cfg.source.Stats()
		cfg.serve.Ingest = func() runtime.IngestStats {
			v := stats.View()
			return runtime.IngestStats{RxPackets: v.RxPackets, RxBytes: v.RxBytes,
				Drops: v.Drops, DecodeErrors: v.DecodeErrors}
		}
		in = cfg.source
	case src != nil:
		in = runtime.Lend(src)
	}
	cfg.serve.OnLive = func(l *runtime.Live) { p.live.Store(l) }
	if cfg.world == nil {
		cfg.world = NewWorld(nil)
	}
	// Realize the cut under the serve-time shape — a cut with no state-keeping
	// stage beside it is un-made (WithFusion(FusionOff) keeps every cut) —
	// publish the plan, and execute its layout.
	plan, lay, err := p.realize(cfg)
	if err != nil {
		return nil, err
	}
	p.plan.Store(plan)
	return lay.Serve(ctx, cfg.world, in)
}

// Snapshot captures the counters of the pipeline's most recent Serve run
// at this instant: safe to call at any time from any goroutine, including
// while the run is still in flight (the usual pattern is Serve on one
// goroutine, Snapshot from a monitoring loop on another). The returned
// value is a plain-field copy — inspect it freely. Returns nil if Serve
// has not been called on this Pipeline. Works with or without an Observer
// attached; under WithShards the per-stage counters are aggregated across
// each stage's replicas. For the full trace and fault records, use the
// Metrics that Serve returns.
func (p *Pipeline) Snapshot() *Snapshot { return p.live.Load().Snapshot() }
