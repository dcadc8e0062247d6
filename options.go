package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/ingest"
	"repro/internal/runtime"
)

// Typed sentinel errors, grouped by lifecycle. Every entry point validates
// its inputs against these and returns them wrapped with context (%w), so
// one errors.Is covers the whole API surface:
//
//	pipe, err := repro.Partition(prog, repro.WithStages(40))
//	if errors.Is(err, repro.ErrUnbalanced) {
//		// no balanced 40-way cut exists; fall back to a lower degree
//	}
//
// See Example (sentinel errors) for the executable version.

// Analysis and partitioning — building a Pipeline from a program.
var (
	// ErrNilProgram is returned when a nil compiled program is passed to
	// Analyze or Partition.
	ErrNilProgram = errs.ErrNilProgram
	// ErrUnbalanced is returned when no finite balanced cut exists at the
	// requested degree and variance.
	ErrUnbalanced = errs.ErrUnbalanced
)

// Configuration — assembling options into a runnable setup.
var (
	// ErrBadOption is returned when an option carries a value outside its
	// accepted range — a degree outside 1..MaxStages, a negative ring
	// capacity or batch, an unknown fusion mode, Explore without a positive
	// WithBudget. The message names the option (or the
	// configuration field it sets) and the offending value.
	ErrBadOption = errs.ErrBadOption
	// ErrBadSource is returned when OpenSource is given a malformed spec
	// (unknown scheme, bad address or parameter) or a pcap file that
	// cannot be parsed.
	ErrBadSource = errs.ErrBadSource
	// ErrConflictingOptions is returned when individually valid options
	// contradict each other (WithSource beside a positional source) — or
	// when an option is passed to an entry point outside its scope
	// (WithIterations on Serve); see the option matrix on Option.
	ErrConflictingOptions = errs.ErrConflictingOptions
)

// Execution — starting a run.
var (
	// ErrNoStages is returned when an execution path is given an empty
	// stage list.
	ErrNoStages = errs.ErrNoStages
	// ErrNilStage is returned when a stage list contains a nil entry.
	ErrNilStage = errs.ErrNilStage
	// ErrNilWorld is returned when a nil execution environment is passed.
	ErrNilWorld = errs.ErrNilWorld
	// ErrNilSource is returned when Serve runs without a packet source.
	ErrNilSource = errs.ErrNilSource
	// ErrNotServable is returned when the stage list violates the
	// streaming runtime's contract: exactly one pkt_rx site, and the state
	// some stage writes (a persistent array, a queue) used by that stage
	// only; state no stage writes may be read from any stage.
	ErrNotServable = errs.ErrNotServable
)

// Faults — per-packet failures while serving, reported via
// Metrics.Faults (FaultReport), not returned by Serve.
var (
	// ErrStagePanic is returned when a panic recovered inside a stage body
	// quarantines the offending packet.
	ErrStagePanic = errs.ErrStagePanic
)

// MaxStages bounds the accepted pipelining degree.
const MaxStages = core.MaxStages

// MaxShards bounds the accepted shard width of WithShards.
const MaxShards = runtime.MaxShards

// config is the one configuration record behind every entry point: the
// layers' own option values, which the With* constructors write directly,
// plus the knobs only the facade reads. Zero values mean "use the default".
type config struct {
	// explore holds the exploration options (the budget) and, in Base,
	// the partitioning ones (degree, ε, ring kind, tx mode).
	explore core.ExploreOptions
	// serve is the runtime's configuration. Two of its fields are not set by
	// options: Pipeline.Serve installs OnLive and — around a WithSource
	// feeder — Ingest. Its RingCapacity is WithRing's explicit depth;
	// serveConfig resolves a zero one from the ring kind.
	serve runtime.Config
	// iters overrides the iteration count of Run.
	iters int
	// serving, facade side
	world  *World
	fusion FusionMode
	// fuse, when set, is the fuse mask to serve in place of the rule's
	// verdict (realize, fusion.go): the tests' WithFuseMaskForTest writes it,
	// no public option does.
	fuse   *uint64
	source ingest.Source
}

// scope is the set of entry points, past the analysis phase, that accept
// an option: the Run and Serve columns of the matrix on Option.
type scope uint8

const (
	inRun scope = 1 << iota
	inServe
)

// Option configures a repro entry point. An option says where it applies:
// it is accepted where it means something and rejected
// (ErrConflictingOptions) where it does not.
//
//	Option                  Partition/Analyze/Explore   Run   Serve
//	WithStages                        yes                -      -
//	WithEpsilon                       yes                -      -
//	WithTxMode                        yes                -      -
//	WithBudget                        yes                -      -
//	WithIterations                    yes               yes     -
//	WithRing                          yes                -     yes
//	WithBatch                         yes                -     yes
//	WithWorld                         yes                -     yes
//	WithObserver                      yes                -     yes
//	WithShards                        yes                -     yes
//	WithShardKey                      yes                -     yes
//	WithFusion                        yes                -     yes
//	WithSource                        yes                -     yes
//	WithSink                          yes                -     yes
//
// The table is documentation; the constructors below are the one list, and
// TestOptionMatrix holds the two together. The first column is the
// defaults-inheritance path: Analyze, Partition and Explore accept every
// option — partitioning knobs apply directly, and an execution option given
// there is recorded on the Pipeline and applies to every later call that
// accepts it. Each option merely records a value; validation happens when
// the entry point assembles its configuration, so an invalid value surfaces
// no matter which call delivered it.
type Option struct {
	name  string
	scope scope
	apply func(*config)
}

// WithStages sets the pipelining degree D the program is cut at. For Serve
// that is an upper bound: fusion serves coarsenings of the D-way cut — never
// a deeper or a different one.
func WithStages(d int) Option {
	return Option{"WithStages", 0, func(c *config) { c.explore.Base.Stages = d }}
}

// WithEpsilon sets the balance variance ε of the paper (default 1/16).
func WithEpsilon(eps float64) Option {
	return Option{"WithEpsilon", 0, func(c *config) { c.explore.Base.Epsilon = eps }}
}

// WithTxMode selects the live-set transmission strategy (default TxPacked).
func WithTxMode(m TxMode) Option {
	return Option{"WithTxMode", 0, func(c *config) { c.explore.Base.Tx = m }}
}

// WithRing selects the inter-stage ring kind — the partition prices its
// transmissions for it — and the capacity Serve's rings have; capacity 0
// keeps the kind's default depth (8 entries for NN rings, 64 for scratch).
func WithRing(kind ChannelKind, capacity int) Option {
	return Option{"WithRing", inServe, func(c *config) {
		c.explore.Base.Channel, c.serve.RingCapacity = kind, capacity
	}}
}

// WithBudget sets the per-packet worst-case budget Explore must meet.
func WithBudget(b int64) Option {
	return Option{"WithBudget", 0, func(c *config) { c.explore.Budget = b }}
}

// WithIterations overrides the iteration count of Run, which defaults to
// one iteration per input packet.
func WithIterations(n int) Option {
	return Option{"WithIterations", inRun, func(c *config) { c.iters = n }}
}

// WithBatch sets the iterations carried per serve-path ring entry
// (default 1). Batching amortizes ring synchronization, and a stage that
// carries no state between iterations executes a whole batch at once, up to
// 32 iterations per pass over its code; one at a time is its slowest gear.
func WithBatch(n int) Option {
	return Option{"WithBatch", inServe, func(c *config) { c.serve.Batch = n }}
}

// WithWorld supplies the execution environment (route tables, queues) a
// served pipeline runs in; the default is an empty NewWorld(nil).
func WithWorld(w *World) Option { return Option{"WithWorld", inServe, func(c *config) { c.world = w }} }

// WithObserver attaches the observability layer to Serve: span tracing
// into o.Tracer, per-stage counter mirroring into o.Registry, and
// periodic progress lines every o.LogEvery. Nil clears it (the default);
// a served pipeline without an observer pays one pointer check per batch
// and nothing else. Pipeline.Snapshot works with or without an observer.
func WithObserver(o *Observer) Option {
	return Option{"WithObserver", inServe, func(c *config) { c.serve.Obs = o }}
}

// WithShards sets the serve-path shard width P: stages that keep no state
// between packets run as P concurrent replicas that take whole batches in
// turn, and the output is read back in the same turn, in exact source
// order — the served trace stays byte-identical to the sequential oracle
// at any P. Stages that keep state (tables they store to, queues) run once,
// behind a fan-in. 0 and 1 both mean unsharded;
// widths outside 0..MaxShards are rejected as ErrBadOption.
func WithShards(p int) Option {
	return Option{"WithShards", inServe, func(c *config) { c.serve.Shards = p }}
}

// WithShardKey does nothing: replicas take whole batches in turn, so no
// packet is hashed to a lane. Replicated stages keep no state, so a key
// could only ever have balanced load. It stays because the repository's
// benchmark harness still passes it.
//
// Deprecated: sharding needs no key; drop the option.
func WithShardKey(func(pkt []byte) uint64) Option {
	return Option{"WithShardKey", inServe, func(*config) {}}
}

// FusionMode selects which cuts Serve un-makes; see WithFusion.
type FusionMode int

const (
	// FusionAuto (the default) un-makes a cut exactly when neither stage
	// beside it keeps state: the stages around it are re-realized as one
	// program, with no live-set transmission between them, and replicated
	// whole when sharded. A cut beside a stage that keeps state — every
	// shard junction is one — keeps its ring. A pipeline with no state is
	// served as the D=1 program; one that keeps state everywhere fuses
	// nothing. Replicas already spread a stateless stage over the cores, so
	// a cut between two of them buys no parallelism, only a ring
	// (EXPERIMENTS.md, "Fusion: the state rule against the mask search").
	FusionAuto FusionMode = iota
	// FusionOff keeps every cut on an SPSC ring — the pre-fusion
	// realization, retained as the baseline for A/B measurement.
	FusionOff
)

// WithFusion selects the stage-fusion mode of a served pipeline (default
// FusionAuto: fuse a cut iff neither stage beside it keeps state).
// Fusion is a realization choice, not a semantic one: the
// served trace and the fault ledger are byte-identical in every mode, and
// Pipeline.Plan() states which cuts were fused and why. Per-stage reports
// keep the partition's numbering: a fused unit books its counters, spans
// and fault records under the first stage it covers, and the entries of
// the stages fused into it are zero and name that stage
// (StageStats.FusedInto). A serve that carries a fault plan keeps every cut.
func WithFusion(m FusionMode) Option {
	return Option{"WithFusion", inServe, func(c *config) { c.fusion = m }}
}

// WithSource feeds a served pipeline from a network-facing batch source
// (BatchSource — a UDP or TCP listener, a pcap replay, or the synthetic
// traffic generator; see OpenSource). The pipeline pulls batches from it
// at the head stage, first-ring backpressure propagates into the source
// (and, for sockets, to the kernel receive buffer), and the source's
// boundary counters surface through Pipeline.Snapshot().Ingest,
// Metrics.Ingest, and the ingest.* registry gauges. Pass nil as Serve's
// positional src when using this option — supplying both is rejected as
// ErrConflictingOptions. Serve does not close the source; the caller
// owns its lifecycle.
func WithSource(s BatchSource) Option {
	return Option{"WithSource", inServe, func(c *config) { c.source = s }}
}

// WithSink sends a served pipeline's output — the trace, pkt_send and
// pkt_drop events of every retired iteration, in source order at any depth
// and shard width — to s as the serve runs (see Sink), instead of keeping it
// for Metrics.Trace. One goroutine pushes; Serve closes s exactly once, on
// every exit, and Metrics.Flushed is what Close reported. DiscardSink,
// HashSink and NewPcapSink ship with the package; nil restores the default,
// the in-memory trace.
func WithSink(s Sink) Option {
	return Option{"WithSink", inServe, func(c *config) { c.serve.Sink = s }}
}

// validate is the central gate: every entry point funnels its assembled
// config through here, so an invalid value reports the same error
// regardless of which call delivered it. Each layer validates what it owns
// — core.ExploreOptions (with the partition Options inside it),
// runtime.Config, fault.Plan — on the value the options wrote; only the
// checks no layer owns live here: the iteration count and the fusion mode.
func (c *config) validate() error {
	if err := c.explore.Validate(); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	if err := c.serveConfig().Validate(); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	if err := c.serve.Faults.Validate(MaxStages); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	if c.iters < 0 {
		return fmt.Errorf("repro: %w: WithIterations %d", ErrBadOption, c.iters)
	}
	if c.fusion < FusionAuto || c.fusion > FusionOff {
		return fmt.Errorf("repro: %w: WithFusion mode %d", ErrBadOption, int(c.fusion))
	}
	return nil
}

// with layers opts over a copy of c and re-validates. Called bare by the
// analysis-phase entry points (Analyze, Partition, Explore), which accept
// every option.
func (c config) with(opts []Option) (config, error) {
	for _, o := range opts {
		if o.apply != nil {
			o.apply(&c)
		}
	}
	if err := c.validate(); err != nil {
		return config{}, err
	}
	return c, nil
}

// within is with for an execution entry point — at is its bit in an
// option's scope: an option that does not apply there is rejected, not
// ignored.
func (c config) within(entry string, at scope, opts []Option) (config, error) {
	for _, o := range opts {
		if o.apply != nil && o.scope&at == 0 {
			return config{}, fmt.Errorf("repro: %w: %s is not accepted by %s (see the option matrix on Option)",
				ErrConflictingOptions, o.name, entry)
		}
	}
	return c.with(opts)
}

// serveConfig is the runtime configuration the options wrote, its ring depth
// resolved: WithRing's capacity, or the default of the ring kind the pipeline
// was partitioned for.
func (c *config) serveConfig() runtime.Config {
	rc := c.serve
	if rc.RingCapacity == 0 {
		rc.RingCapacity = runtime.DefaultRingCapacity(c.explore.Base.Channel)
	}
	return rc
}

// FaultReport is the serve run's loss accounting (Metrics.Faults).
type FaultReport = runtime.FaultReport

// FaultRecord describes the fate of one quarantined packet.
type FaultRecord = runtime.FaultRecord
