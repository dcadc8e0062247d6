// Package runtime is the host-native streaming executor for partitioned
// pipelines: one goroutine per stage replica, connected by bounded rings,
// serving a packet stream. Where internal/npsim *predicts* pipeline timing on a
// model of the IXP, this package *measures* it on the host — each stage
// really runs concurrently, inter-stage rings really exert backpressure,
// and throughput comes from the wall clock.
//
// Every serve goroutine has the one shape of the paper's pipeline stage
// (unit, below): take a batch from the in-port — the Source at the head,
// rings elsewhere — run it through the unit's stage, hand it to the out-port
// — rings, or the Sink. D=1 is the degenerate pipeline source -> stage ->
// sink; the sharding dispatcher is a source in-port with no stage in front
// of its lane rings, and its mirror, the sink unit behind a replicated last
// stage, a fan-in with no stage in front of the Sink.
//
// The runtime serves exactly the stages it is given, every cut between them
// on a ring. A cut that should not cost a ring is not served here at all:
// the partitioner realizes the stages around it as one program
// (core.Result.Coarsen) and NewCoarseLayout takes the same fuse mask, so
// counters, spans and fault records keep the cut's stage numbers.
//
// Correctness model: every iteration owns an interp.IterCtx that flows
// down the pipeline inside a token. The source in-port pulls a batch from
// the Source, one packet per iteration, and attaches each to its token; the
// batch closes with whatever the Source had ready. The iteration's
// observable events are buffered on the token (IterCtx.DeferEvents) and
// pushed to the Sink (sink.go) as the token retires. Because each ring has
// exactly one producer and one consumer, tokens retire in iteration order
// and the stream the Sink sees — the default one keeps it as Metrics.Trace —
// is byte-identical to the sequential oracle's: there is no cross-stage
// reordering to normalize away.
//
// Sharding (Config.Shards > 1) replicates the stateless stages P ways: the
// replicas take whole batches in turn, as the hardware threads of an IXP
// engine take successive packets, and a fan-in reads the lanes in the same
// turn, so the served trace stays byte-identical to the oracle at any shard
// count. The topology and the determinism argument live in shard.go; the
// rotating ports in ring.go.
//
// Shared state discipline (what makes the concurrency safe):
//
//   - the packet stream is pre-pulled at the head stage (Runner.RxFromCtx),
//     so no stage touches the World's packet cursor;
//   - a queue, and a persistent array any stage stores to, is confined to
//     a single stage (the partitioning invariant, re-checked by Validate);
//     an array no stage stores to is read from anywhere; and the shared
//     persistent store is fully materialized before any goroutine starts;
//     only a stage that keeps no state replicates (see shard.go);
//   - route tables are read-only;
//   - per-replica counters live in atomic probes (one writer each), so a
//     Live.Snapshot taken mid-serve is race-free; fault records stay
//     goroutine-local and are merged only after the final join.
//
// Observability (internal/obsv) threads through the same loop: when a
// Config carries an Observer, units record wait/exec/tx spans, mirror
// their counters into a metrics registry, and emit periodic progress
// lines. With no Observer the extra cost is one nil check per batch — no
// clocks, no allocation (measured, not gated: the benchmark's
// obsv.trace_overhead_frac is the cost of turning the tracer on).
package runtime

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/bits"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/errs"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obsv"
	"repro/internal/runtime/fault"
	"repro/internal/spsc"
)

// Config shapes the streaming executor.
type Config struct {
	// RingCapacity is the per-ring entry count (batches, not packets). 0
	// selects the nearest-neighbor ring's 8; DefaultRingCapacity gives each
	// ring kind's depth.
	RingCapacity int
	// Batch is the number of iterations carried per ring entry; batching
	// amortizes ring synchronization over several packets, and it is the
	// width a stage body executes at (exec.Runner.RunBatch). 0 means 1.
	Batch int

	// Shards is the pipeline replica width P: stages that keep no state
	// between iterations run P ways, each replica taking whole batches in
	// turn, and the output is read back in the same turn, in exact global
	// order. 0 and 1 both mean unsharded; the accepted range is
	// 0..MaxShards. Stages that keep state (tables they store to, queues)
	// stay unsharded behind a fan-in, so the served trace is byte-identical
	// to the oracle at any width.
	Shards int

	// Faults is the test seam: a deterministic schedule of stage stalls
	// (lossless: a full ring blocks its producer) and panics (nil: none),
	// a panic being the serve's one loss. Nothing outside tests sets it.
	Faults *fault.Plan

	// Sink receives the served stream (see Sink): the events of every retired
	// iteration, in source order, pushed by one goroutine, and one Close when
	// the serve ends. nil selects a TraceSink of the serve's own, whose events
	// become Metrics.Trace.
	Sink Sink

	// Ingest, when non-nil, snapshots the boundary counters of the
	// network-facing source feeding this run (rx packets/bytes, drops,
	// decode errors). The runtime never calls it on the hot path: only
	// when a Snapshot is taken, when registry gauges are read, and once
	// to freeze Metrics.Ingest after the final join.
	Ingest func() IngestStats

	// Obs attaches the observability layer — span tracing, registry
	// mirroring, periodic progress lines. nil disables all of it at the
	// cost of one pointer check per batch.
	Obs *obsv.Observer
	// OnLive, when non-nil, receives the run's Live probe handle before
	// the first stage goroutine starts; snapshots taken through it are
	// race-free while the run is in flight. The repro package uses this
	// to back Pipeline.Snapshot.
	OnLive func(*Live)
}

// Validate checks every serve-side value of the configuration: an
// out-of-range field is errs.ErrBadOption naming the field and its value. It
// is the one validator: every Layout runs it, and the repro facade runs it
// on the Config its options write into, so a bad value reports the same
// error whichever layer catches it. (The fault plan is checked against the
// actual stage count by the Layout.)
func (c Config) Validate() error {
	if c.RingCapacity < 0 {
		return fmt.Errorf("%w: RingCapacity %d", errs.ErrBadOption, c.RingCapacity)
	}
	if c.Batch < 0 {
		return fmt.Errorf("%w: Batch %d", errs.ErrBadOption, c.Batch)
	}
	if c.Shards < 0 || c.Shards > MaxShards {
		return fmt.Errorf("%w: Shards %d (want 0..%d)", errs.ErrBadOption, c.Shards, MaxShards)
	}
	if err := c.Obs.Validate(); err != nil {
		return fmt.Errorf("%w: Obs: %v", errs.ErrBadOption, err)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.RingCapacity == 0 {
		c.RingCapacity = DefaultRingCapacity(costmodel.NNRing)
	}
	if c.Batch == 0 {
		c.Batch = 1
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	return c
}

// Validate checks the servability contract of a stage list: stages exist
// and are non-nil; state some stage writes — a persistent array it stores
// to, a queue — is used by that stage only, which is what lets stage
// goroutines touch it without locks (state no stage writes is constant and
// read from any stage: costmodel.CheckConfined, core.ValidateStages' rule
// too); and exactly one pkt_rx site exists across the pipeline (it is the
// pacing point — one packet enters per iteration). The partitioner
// guarantees the confinement for its own output; Validate re-checks it so
// hand-built stage lists fail loudly instead of racing.
func Validate(stages []*ir.Program) error {
	if len(stages) == 0 {
		return errs.ErrNoStages
	}
	for i, s := range stages {
		if s == nil || s.Func == nil {
			return fmt.Errorf("stage %d: %w", i+1, errs.ErrNilStage)
		}
	}
	if err := costmodel.CheckConfined(stages); err != nil {
		return fmt.Errorf("%w: %v", errs.ErrNotServable, err)
	}
	rxSites := 0
	for _, s := range stages {
		for _, b := range s.Func.Blocks {
			for _, in := range b.Instrs {
				if costmodel.UseOf(in).Rx {
					rxSites++
				}
			}
		}
	}
	if rxSites != 1 {
		return fmt.Errorf("%w: need exactly one pkt_rx site to pace the stream, found %d",
			errs.ErrNotServable, rxSites)
	}
	return nil
}

// token carries one in-flight iteration: its context (packet, metadata,
// locals, buffered events). Its live set is not here but in its batch's
// block, at its row (batch). iter is the packet's source-order index
// (assigned at the head, 0-based), the key every fault-injection trigger and
// fault record is expressed in. The fields every handoff touches, ctx and
// iter, lead; the context itself trails, in the same allocation.
type token struct {
	ctx  *interp.IterCtx
	iter int64
	c    interp.IterCtx            // what ctx points at
	evs  [tokenEvents]interp.Event // c's first room for events
}

// batch is what a ring entry carries: up to Config.Batch tokens in source
// order and, when a stage of the layout transmits a live set, the two blocks
// their live sets ride in, token i's at row i of in. A stage reads in and
// writes out, then the two swap, so a cut costs column copies into memory
// the batch owns. A batch crosses every ring whole, so a token changes
// place only when quarantine closes the batch up, and then it takes its row
// along (exec.Block.MoveRow).
// A batch owns exactly Config.Batch tokens and its two blocks, sized for the
// widest cut, for the whole serve: toks is a prefix of them, and the rest,
// unfilled or quarantined, wait past len(toks), pristine. A retired batch
// goes back to the source whole through the free ring.
type batch struct {
	toks    []*token
	in, out *exec.Block
}

// size is the number of tokens in b; a nil batch has none.
func (b *batch) size() int {
	if b == nil {
		return 0
	}
	return len(b.toks)
}

// laneCtx identifies one stage replica's execution lane: its stage, its
// probe, its runner, its fault-injector view, and its fault-record buffer.
// Built once per goroutine; everything the hot path touches is one
// indirection away.
type laneCtx struct {
	num    int // 1-based cut stage it reports as
	probe  *stageProbe
	run    *exec.Runner
	inj    *fault.Injector
	recIdx int

	// The batch being executed: the context of each admitted token.
	its []*interp.IterCtx
}

// unit is one serve goroutine — the single shape every pipeline stage of
// the paper has: take the live set from the in-port, run this unit's slice
// of the PPS loop, put the live set on the out-port. lc is the stage replica
// the unit executes. The head is source -> stage -> rings, an interior stage
// rings -> stage -> rings, D=1 source -> stage -> sink, and the dispatcher a
// source in-port with no stage at all (lc nil) in front of its lane rings;
// the sink unit is its mirror, a fan-in with no stage in front of the Sink.
type unit struct {
	in     inPort
	lc     *laneCtx
	out    outPort
	labels pprof.LabelSet
}

// engine is the per-Serve state shared by the unit goroutines.
type engine struct {
	// ictx is the run's own context, canceled only by a fatal error (fail):
	// every blocking wait past the head watches it. stop is the head's — the
	// caller's ctx, also canceled by fail: once it is done the head pulls no
	// more, injected stalls end, and what is in flight drains to the sink.
	ictx     context.Context
	cancel   context.CancelFunc
	stop     context.Context
	halt     context.CancelFunc
	cfg      Config
	src      Source
	owned    bool     // src hands its packets over: it is not a lender
	pkts     [][]byte // the head's Pull buffer, one batch long
	srcErr   error    // why src ended: io.EOF, the head's cancelation or a failure
	plan     *shardPlan
	runners  [][]*exec.Runner // stage -> replicas
	rings    [][]*tokRing     // cut -> lane rings; the last, into the sink unit, only when one exists
	headRing []*tokRing       // dispatcher -> stage-0 replicas (nil without a dispatcher)
	units    []*unit          // one goroutine each
	inj      *fault.Injector
	injs     []*fault.Injector // per-lane injector views; injs[0] is inj

	// live holds the per-replica atomic probes every counter update lands
	// in; recs are the per-lane fault-record buffers, each owned by its
	// goroutine until the final join.
	live *Live
	recs [][]FaultRecord

	// Observability. timed is true when any instrument needs the extra
	// clock reads around ring operations; tr is the span sink (nil:
	// tracing off); fillHist/waitHist are the per-stage registry
	// histograms (nil entries: metrics off; Observe is atomic, so
	// replicas share their stage's histogram).
	timed    bool
	tr       *obsv.Tracer
	fillHist []*obsv.Histogram
	waitHist []*obsv.Histogram

	// free recycles whole retired batches — reset tokens and blocks still
	// attached — from the sink back to the source, one ring operation per
	// batch. One goroutine pushes to the Sink, so the ring has its one
	// producer there and its one consumer in the source in-port; neither end
	// ever waits on it. made counts the batches takeBatch allocated, and
	// slots is the live-set width their blocks are built for; only the
	// source in-port's goroutine touches either.
	free  *tokRing
	made  int
	slots int

	// sink is where retired iterations go; trace is the same value when the
	// serve made its own (Config.Sink nil). evbuf is the pushing goroutine's
	// scratch: one batch's events, flat, the engine's again after each Push.
	sink  Sink
	trace *TraceSink
	evbuf []interp.Event

	errOnce  sync.Once
	firstErr error
}

// tokenEvents is the room for events a new token's context comes with.
const tokenEvents = 4

// newBatch allocates a batch of n pristine tokens in deferred-events mode —
// contexts and room for events included, in one allocation — whose blocks
// have room for slots live-set slots. With no slot to carry — D=1, a fully
// fused layout — a batch takes no block.
func newBatch(n, slots int) *batch {
	ts, b := make([]token, n), &batch{toks: make([]*token, n)}
	for i := range ts {
		t := &ts[i]
		t.ctx, t.c.Events, t.c.DeferEvents = &t.c, t.evs[:0], true
		b.toks[i] = t
	}
	if slots > 0 {
		b.in, b.out = exec.NewBlocks(slots, n)
	}
	return b
}

// liveSlots is the widest live set any of the programs sends or receives.
func liveSlots(progs []*ir.Program) (slots int) {
	for _, prog := range progs {
		for _, b := range prog.Func.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpSendLS:
					slots = max(slots, len(in.Args))
				case ir.OpRecvLS:
					slots = max(slots, len(in.Dsts))
				}
			}
		}
	}
	return slots
}

func (e *engine) fail(err error) {
	e.errOnce.Do(func() {
		e.firstErr = err
		e.halt()
		e.cancel()
	})
}

// record appends a fault record to lane buffer i, respecting the cap.
// Only the lane's own goroutine calls it, so no lock is needed; the
// buffers are merged into the FaultReport after the final join.
func (e *engine) record(i int, r FaultRecord) {
	if len(e.recs[i]) < maxFaultRecords {
		e.recs[i] = append(e.recs[i], r)
	}
}

// lane builds the execution-lane view of stage s, replica j.
func (e *engine) lane(s, j int) *laneCtx {
	return &laneCtx{
		num:    e.live.first[s],
		probe:  e.live.probe(s, j),
		run:    e.runners[s][j],
		inj:    e.injs[j],
		recIdx: e.live.offs[s] + j,
		its:    make([]*interp.IterCtx, 0, e.cfg.Batch),
	}
}

// unitLabel renders the cut stages first..last a served stage stands for, as
// its pprof label: "2" for a lone stage, "2+3" for one program realizing
// stages 2 and 3.
func unitLabel(first, last int) string {
	if first == last {
		return strconv.Itoa(first)
	}
	return strconv.Itoa(first) + "+" + strconv.Itoa(last)
}

// takeBatch hands the source in-port an empty batch, its tokens pristine:
// one recycled whole through the free ring, or a new one when the ring is
// empty. Either way no row of its blocks holds a live set. Only the source
// in-port's goroutine calls it.
func (e *engine) takeBatch() *batch {
	b, ok := e.free.TryPop()
	if !ok {
		e.made++
		return newBatch(e.cfg.Batch, e.slots)
	}
	if b.in != nil {
		b.in.Reset()
	}
	return b
}

// reset returns the token to its pristine state for reuse. All
// per-iteration state lives either here or in the IterCtx, whose Reset
// zeroes the local-array storage in place and leaves DeferEvents set — a
// recycled token can never leak a prior packet's locals, metadata, or
// deferred events.
func (t *token) reset() {
	t.ctx.Reset()
	t.iter = 0
}

// recycleBatch resets a retired batch's tokens in place and hands the whole
// batch back to the source through the free ring, which has room for every
// batch the serve can have (see build).
func (e *engine) recycleBatch(b *batch) {
	for _, t := range b.toks {
		t.reset()
	}
	e.free.TryPush(b)
}

// span records one phase interval into the stage's span log when tracing
// is enabled (a nil tracer drops it).
func (e *engine) span(stage int, iter int64, n int, phase obsv.Phase, start time.Time, dur time.Duration) {
	e.tr.Record(obsv.Span{Stage: stage, Iter: iter, N: n, Phase: phase, Start: start.Sub(e.live.start), Dur: dur})
}

// admit runs what precedes one iteration's body at lc's stage under a fault
// plan — the injected stall or panic — under its own recover, so an injected
// panic quarantines exactly the token it was aimed at. A nil error admits the
// token to the body; anything else is the reason to quarantine it, with
// persistent state untouched.
func (e *engine) admit(lc *laneCtx, t *token) (err error) {
	if e.inj == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errs.ErrStagePanic, r)
		}
	}()
	lc.inj.BeforeStage(e.stop, lc.num, t.iter)
	return nil
}

// quarantine takes t out of the pipeline and records why; its buffered
// events never reach the sink. The token is reset but stays with its batch,
// which execGroup closes up over it.
func (e *engine) quarantine(lc *laneCtx, t *token, why error) {
	lc.probe.quarantined.Add(1)
	e.record(lc.recIdx, FaultRecord{Iter: t.iter, Stage: lc.num, Disposition: "quarantined", Reason: why.Error()})
	t.reset()
}

// runBody runs the stage body over lc.its and b's blocks, one call for the
// whole group, under a recover that converts a panic into
// errs.ErrStagePanic. The fault hooks ran in admit, so a panic here is a bug
// in the stage program or the backend, not an injection, and cannot be
// pinned on one iteration.
func (e *engine) runBody(lc *laneCtx, b *batch) (panicked, err error) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Errorf("%w: %v", errs.ErrStagePanic, r)
		}
	}()
	return nil, lc.run.RunBatch(lc.its, b.in, b.out)
}

// retire is the sink out-port: it pushes a finished batch's events to the
// Sink, in iteration order, and recycles the whole batch. One goroutine per
// serve calls it — the last stage's unit, or the sink unit behind a
// replicated last stage — and the time it spends inside Push, working or
// blocked, is booked on its probe as transmit-side wait. A Push error ends the
// serve (unless the serve was ending already, and the error is only the
// sink's way of saying so); the refused batch is not delivered. A batch
// quarantine emptied is recycled without a Push.
func (e *engine) retire(b *batch, lc *laneCtx) bool {
	if len(b.toks) == 0 {
		e.recycleBatch(b)
		return true
	}
	evs := e.evbuf[:0]
	for _, t := range b.toks {
		evs = append(evs, t.ctx.Events...)
	}
	e.evbuf = evs
	t0 := time.Now()
	err := e.sink.Push(e.ictx, evs)
	lc.probe.txWait.ParkNs.Add(int64(time.Since(t0)))
	if err != nil {
		if e.ictx.Err() == nil {
			e.fail(fmt.Errorf("sink: %w", err))
		}
		return false
	}
	e.live.packets.Add(int64(len(b.toks)))
	lc.probe.out.Add(int64(len(b.toks)))
	e.recycleBatch(b)
	return true
}

// runUnit is the one loop every serve goroutine runs: receive a batch, run
// it through the unit's stage, send what survived — and send the batch even
// when quarantine emptied it, so every unit downstream of a scatter counts
// the same batches the scatter sent. The wait for the batch — on the Source
// at the head, on a ring elsewhere — is booked as the receiving stage's wait
// span, keyed by the batch's first iteration like every other span of that
// batch (so a batch's reconstructed latency window opens at its first pull).
// The dispatcher and the sink unit have no stage to book to, so they record
// none.
func (e *engine) runUnit(u *unit) {
	defer u.out.close()
	for {
		var wStart time.Time
		if e.timed {
			wStart = time.Now()
		}
		b, more := u.in.recv(e)
		if lc := u.lc; lc != nil && b.size() > 0 {
			if e.timed {
				wait := time.Since(wStart)
				e.span(lc.num, b.toks[0].iter, len(b.toks), obsv.PhaseWait, wStart, wait)
				e.waitHist[lc.num-1].Observe(wait.Microseconds())
			}
			if !e.execBatch(lc, b) {
				return
			}
		}
		if b != nil && !u.out.send(e, b, e.timed && u.lc != nil && len(b.toks) > 0) {
			return
		}
		if !more {
			return
		}
	}
}

// execBatch runs one batch through the unit's stage as one group — every
// token admitted, then one RunBatch over the admitted ones — booking its busy
// time. It is false when a fatal error aborted the run.
func (e *engine) execBatch(lc *laneCtx, b *batch) bool {
	firstIter, n := b.toks[0].iter, len(b.toks)
	t0 := time.Now()
	ok := e.execGroup(lc, b)
	busy := time.Since(t0)
	lc.probe.busyNs.Add(int64(busy))
	if ok && e.timed {
		e.span(lc.num, firstIter, n, obsv.PhaseExec, t0, busy)
		e.fillHist[lc.num-1].Observe(int64(n))
	}
	return ok
}

// execGroup runs the tokens of b through lc's stage, leaving in b the ones
// that go on. A token that fails its admission, or whose group panicked, is
// quarantined: each kept token swaps forward over it, its row moving with
// it, so the quarantined token stays in the batch past len(b.toks). The body
// reads the live sets from b.in and writes the outgoing ones into b.out,
// then the two swap.
func (e *engine) execGroup(lc *laneCtx, b *batch) bool {
	lc.its = lc.its[:0]
	for i, t := range b.toks {
		if err := e.admit(lc, t); err != nil {
			e.quarantine(lc, t, err)
			continue
		}
		if j := len(lc.its); j != i {
			b.toks[j], b.toks[i] = t, b.toks[j]
			if b.in != nil {
				b.in.MoveRow(j, b.in, i)
			}
		}
		lc.its = append(lc.its, t.ctx)
	}
	b.toks = b.toks[:len(lc.its)]
	if len(b.toks) == 0 {
		return true
	}
	fault, err := e.runBody(lc, b)
	if err != nil {
		// An interpreter-level error (a malformed stage program, a
		// step-limit blowout) aborts the whole serve.
		e.fail(fmt.Errorf("stage %d: %w", lc.num, err))
		return false
	}
	if fault != nil {
		lc.probe.bodyPanics.Add(1)
		for _, t := range b.toks {
			e.quarantine(lc, t, fault)
		}
		b.toks = b.toks[:0]
		return true
	}
	b.in, b.out = b.out, b.in
	return true
}

// histogram bucket bounds the registry mirror uses: batch fill in
// iterations, ring wait in microseconds.
var (
	fillBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128}
	waitBounds = []int64{1, 10, 100, 1_000, 10_000, 100_000}
)

// wireObservability prepares the engine's instrument fields from the
// config: the tracer (reset to this run's origin), the registry mirror
// (computed gauges over the live probes — aggregated across a stage's
// replicas — plus histograms for batch fill and ring wait), and the timed
// flag that gates the extra clock reads.
func (e *engine) wireObservability(d int) {
	obs := e.cfg.Obs
	e.fillHist = make([]*obsv.Histogram, d)
	e.waitHist = make([]*obsv.Histogram, d)
	if !obs.Tracing() && !obs.Metrics() {
		return
	}
	e.timed = true
	if obs.Tracing() {
		e.tr = obs.Tracer
		e.tr.Reset(e.live.start)
	}
	if !obs.Metrics() {
		return
	}
	reg := obs.Registry
	l := e.live
	reg.Func("pipeline.stages", func() int64 { return int64(l.degree()) })
	reg.Func("pipeline.shards", func() int64 { return int64(l.shards) })
	reg.Func("pipeline.packets", l.packets.Load)
	reg.Func("pipeline.elapsed_ns", func() int64 { return int64(l.Snapshot().Elapsed) })
	if ing := e.cfg.Ingest; ing != nil {
		reg.Func("ingest.rx_packets", func() int64 { return ing().RxPackets })
		reg.Func("ingest.rx_bytes", func() int64 { return ing().RxBytes })
		reg.Func("ingest.drops", func() int64 { return ing().Drops })
		reg.Func("ingest.decode_errors", func() int64 { return ing().DecodeErrors })
	}
	for k := 0; k < d; k++ {
		k := k
		prefix := "pipeline.stage" + strconv.Itoa(k+1) + "."
		reg.Func(prefix+"in", func() int64 { return l.stageStats(k).In })
		reg.Func(prefix+"out", func() int64 { return l.stageStats(k).Out })
		reg.Func(prefix+"stalls", func() int64 { return l.stageStats(k).Stalls })
		reg.Func(prefix+"quarantined", func() int64 { return l.stageStats(k).Quarantined })
		reg.Func(prefix+"busy_ns", func() int64 { return int64(l.stageStats(k).Busy) })
		reg.Func(prefix+"spins", func() int64 { return l.stageStats(k).Spins })
		reg.Func(prefix+"parks", func() int64 { return l.stageStats(k).Parks })
		reg.Func(prefix+"spin_ns", func() int64 { return int64(l.stageStats(k).SpinWait) })
		reg.Func(prefix+"park_ns", func() int64 { return int64(l.stageStats(k).ParkWait) })
		reg.Func(prefix+"lost_wakeups", func() int64 { return l.stageStats(k).LostWakeups })
		reg.Func(prefix+"body_panics", func() int64 { return l.stageStats(k).BodyPanics })
		reg.Func(prefix+"ring_occ_milli", func() int64 {
			st := l.stageStats(k)
			if st.occSamples == 0 {
				return 0
			}
			return st.occSum * 1000 / st.occSamples
		})
		e.fillHist[k] = reg.Histogram(prefix+"batch_fill", fillBounds)
		if k > 0 {
			e.waitHist[k] = reg.Histogram(prefix+"ring_wait_us", waitBounds)
		}
	}
}

// logLoop emits one progress line per interval until stop closes; Serve
// runs it only when the Observer asks for periodic logging, and joins it
// before returning so no logger goroutine outlives the run.
func (e *engine) logLoop(stop <-chan struct{}) {
	logf := e.cfg.Obs.Logf
	if logf == nil {
		logf = log.Printf
	}
	tick := time.NewTicker(e.cfg.Obs.LogEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			logf("%s", e.live.Snapshot().Line())
		}
	}
}

// Serve runs the partitioned stages concurrently — one goroutine per
// unit replica, bounded rings between neighbors — against the packet
// stream of src, with world supplying route tables and persistent state.
// It returns when the source is exhausted and the pipeline has drained.
// Canceling ctx ends the source: the head pulls no more, the iterations
// already in flight drain to the sink, so the fault ledger balances, and
// the returned error is the context's.
//
// With cfg.Shards = P > 1, stages that keep no state run as P replicas
// that take whole batches in turn; stages that keep state run unsharded
// behind a fan-in that reads the lanes in the same turn. The observable
// events go to cfg.Sink in exact sequential-oracle order as iterations
// retire; the returned Metrics hold per-stage counters aggregated across
// replicas and, under the default sink, the whole trace — which on normal
// completion is also published on world.Trace, matching the convention of
// the oracle paths.
//
// Each goroutine runs under a pprof label ("stage" = its 1-based index,
// "2+3" for a program realizing two cut stages, plus "lane" for replicas),
// so CPU profiles
// attribute samples per stage; cfg.Obs attaches the rest of the
// observability layer and cfg.OnLive exposes the live counter probes for
// mid-run snapshots.
func Serve(ctx context.Context, stages []*ir.Program, world *interp.World, src Source, cfg Config) (*Metrics, error) {
	l, err := NewLayout(stages, cfg)
	if err != nil {
		return nil, err
	}
	return l.Serve(ctx, world, src)
}

// Layout is everything a serve decides before it allocates anything, as
// one immutable value: the stage list checked against the servability
// contract, the cut stage each one reports as, whether each stage keeps
// state between iterations, the configuration validated with its defaults
// filled, and the shard plan (per-stage replica widths and junctions). build
// wires exactly what it says and the repro facade prints it as the Plan, so
// what is reported and what runs cannot differ.
type Layout struct {
	stages []*ir.Program
	first  []int // served stage -> 1-based cut stage it begins at; one past the last closes the list
	serial []bool
	cfg    Config
	plan   *shardPlan
}

// NewLayout validates stages, scans their state, and lays them out under cfg.
func NewLayout(stages []*ir.Program, cfg Config) (*Layout, error) {
	return NewCoarseLayout(stages, 0, cfg)
}

// NewCoarseLayout is NewLayout for the programs of a cut coarsened by the
// fuse mask fuse (core.Result.Coarsen's: bit k set un-makes cut k+1, so the
// programs stand for one cut stage each plus one per set bit). The programs
// are served as they come — one unit per program replica, a ring at every
// boundary between them — but everything reported per stage keeps the cut's
// numbering: Metrics.Stages and Snapshot.Stages have one entry per cut stage,
// a program books its counters, spans and fault records under the first
// stage it covers, and the entries of the stages folded into it stay zero
// and name that stage in FusedInto. A fault plan names cut stages too, and
// fires only at a stage that begins a program.
func NewCoarseLayout(stages []*ir.Program, fuse uint64, cfg Config) (*Layout, error) {
	if err := Validate(stages); err != nil {
		return nil, err
	}
	d := len(stages) + bits.OnesCount64(fuse)
	if fuse>>(d-1) != 0 {
		return nil, fmt.Errorf("%w: fuse mask %b for %d programs", errs.ErrBadOption, fuse, len(stages))
	}
	first := []int{1}
	for s := 2; s <= d; s++ {
		if fuse>>(s-2)&1 == 0 {
			first = append(first, s)
		}
	}
	first = append(first, d+1)
	return (&Layout{stages: stages, first: first, serial: serialStages(stages)}).With(cfg)
}

// degree is the number of cut stages the layout's programs stand for: the
// length of every per-stage report.
func (l *Layout) degree() int { return l.first[len(l.stages)] - 1 }

// With lays the same stages out under another configuration, reusing their
// state scan: one cached shape serves every (batch, shards) a serve asks
// for. It fails with the typed error Serve would report for cfg — a bad
// value, a fault plan naming a stage past the last.
func (l *Layout) With(cfg Config) (*Layout, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if err := cfg.Faults.Validate(l.degree()); err != nil {
		return nil, err
	}
	plan := newShardPlan(l.serial, cfg.Shards)
	return &Layout{stages: l.stages, first: l.first, serial: l.serial, cfg: cfg, plan: plan}, nil
}

// Stages returns the served programs, in pipeline order (read-only).
func (l *Layout) Stages() []*ir.Program { return l.stages }

// Replicas reports each served stage's replica width: 1, or the shard width.
func (l *Layout) Replicas() []int { return slices.Clone(l.plan.reps) }

// Serial reports whether each served stage keeps state between iterations
// (serialStages): such a stage runs once at any shard width.
func (l *Layout) Serial() []bool { return slices.Clone(l.serial) }

// Width is the effective shard width: the configured one when any stage
// replicates, 1 otherwise (every stage keeps state).
func (l *Layout) Width() int { return l.plan.width() }

// Serve runs the layout: build, run, finish. See the package-level Serve.
// The configured Sink is closed exactly once, also by a serve that could not
// be built.
func (l *Layout) Serve(ctx context.Context, world *interp.World, src Source) (*Metrics, error) {
	e, err := build(l, world, src)
	if err != nil {
		if l.cfg.Sink != nil {
			l.cfg.Sink.Close() //nolint:errcheck // the build error is the one to report
		}
		return nil, err
	}
	e.run(ctx)
	return e.finish(ctx, world)
}

// build wires the whole run a layout describes — runners, rings, probes,
// units — without starting anything: the returned engine is the realized
// topology as a value.
func build(l *Layout, world *interp.World, src Source) (*engine, error) {
	if world == nil {
		return nil, errs.ErrNilWorld
	}
	if src == nil {
		return nil, errs.ErrNilSource
	}
	cfg, plan, D := l.cfg, l.plan, len(l.stages)
	e := &engine{
		cfg:     cfg,
		src:     src,
		plan:    plan,
		runners: newShardRunners(l.stages, world, plan),
		rings:   make([][]*tokRing, D),
		inj:     fault.NewInjector(cfg.Faults, l.degree()),
		injs:    make([]*fault.Injector, plan.width()),
		live:    newLive(plan.reps, l.first, plan.width()),
		sink:    cfg.Sink,
	}
	if e.sink == nil {
		e.trace = &TraceSink{}
		e.sink = e.trace
	}
	_, lent := src.(lender)
	e.owned, e.pkts = !lent, make([][]byte, cfg.Batch)
	e.live.ingest = cfg.Ingest
	e.recs = make([][]FaultRecord, len(e.live.probes))
	e.injs[0] = e.inj
	for j := 1; j < len(e.injs); j++ {
		e.injs[j] = e.inj.Lane()
	}
	e.slots = liveSlots(l.stages)
	for k := range e.rings {
		if k < D-1 || plan.reps[k] > 1 {
			e.rings[k] = e.newRings(plan.lanes(k))
		}
	}
	if plan.reps[0] > 1 {
		e.headRing = e.newRings(plan.reps[0])
		e.units = append(e.units, e.dispatcher())
	}
	for s := 0; s < D; s++ {
		for j := 0; j < plan.reps[s]; j++ {
			e.units = append(e.units, e.newUnit(s, j))
		}
	}
	if plan.reps[D-1] > 1 {
		e.units = append(e.units, e.sinkUnit())
	}
	// The free ring holds every batch the serve can have: those in the rings
	// and the one in each unit's hands. The source allocates a batch only
	// when the ring is empty, so every batch is then in a ring or in another
	// unit's hands, and the count never passes the ring's room: the ring
	// never refuses a retired batch.
	held := len(e.units) + len(e.headRing)*cfg.RingCapacity
	for _, rs := range e.rings {
		held += len(rs) * cfg.RingCapacity
	}
	e.free = spsc.New[*batch](held, spsc.DefaultStrategy())
	return e, nil
}

// dispatcher builds the source unit of a run whose first stage is
// replicated: the source in-port pulls, no stage executes, and the out-port
// deals the batches whole to the head rings in turn. Its lane view is the
// extra probe past the per-replica ones; it records no faults, since no
// stage runs here.
func (e *engine) dispatcher() *unit {
	lc := &laneCtx{num: 1, probe: e.live.disp, recIdx: -1}
	return &unit{
		in:     inPort{kind: portSource, lc: lc},
		out:    outPort{kind: portRings, lc: lc, rings: e.headRing},
		labels: pprof.Labels("stage", "dispatch"),
	}
}

// sinkUnit builds the dispatcher's mirror behind a replicated last stage: a
// fan-in reads the lanes in turn, back in source order, no stage executes,
// and the out-port pushes to the Sink — so exactly one goroutine does, at
// any width. Its probe folds into the last stage's report as the
// dispatcher's does into the first's.
func (e *engine) sinkUnit() *unit {
	lc := &laneCtx{probe: e.live.sink}
	return &unit{
		in:     inPort{kind: portRings, lc: lc, rings: e.rings[len(e.runners)-1]},
		out:    outPort{kind: portSink, lc: lc},
		labels: pprof.Labels("stage", "sink"),
	}
}

// lanesOf is the share of the rings rs at one end of a cut that replica j
// of a stage with reps replicas holds: every lane, taken in turn, when the
// stage is the single replica facing a replicated neighbor (a scatter out,
// a fan-in in); its own lane otherwise.
func lanesOf(rs []*tokRing, reps, j int) []*tokRing {
	if len(rs) > reps {
		return rs
	}
	return rs[j : j+1]
}

// newUnit wires replica j of served stage s: its lane and the ports the
// shard plan puts at its two ends.
func (e *engine) newUnit(s, j int) *unit {
	lc := e.lane(s, j)
	last := e.live.first[s+1] - 1
	reps := e.plan.reps[s]
	u := &unit{lc: lc, labels: pprof.Labels("stage", unitLabel(lc.num, last))}
	if reps > 1 {
		u.labels = pprof.Labels("stage", unitLabel(lc.num, last), "lane", strconv.Itoa(j))
	}
	in := e.headRing
	if s > 0 {
		in = e.rings[s-1]
	}
	u.in = inPort{kind: portSource, lc: lc}
	if in != nil {
		u.in = inPort{kind: portRings, lc: lc, rings: lanesOf(in, reps, j)}
	}
	u.out = outPort{kind: portSink, lc: lc}
	if out := e.rings[s]; out != nil {
		u.out = outPort{kind: portRings, lc: lc, rings: lanesOf(out, reps, j)}
	}
	return u
}

// run starts the clock, attaches the instruments, runs every unit to
// completion on its own goroutine, and freezes the elapsed time.
func (e *engine) run(ctx context.Context) {
	e.ictx, e.cancel = context.WithCancel(context.WithoutCancel(ctx))
	defer e.cancel()
	e.stop, e.halt = context.WithCancel(ctx)
	defer e.halt()
	if l, ok := e.src.(lender); ok {
		var release func() bool
		e.src, release = l.arm(e.stop)
		defer release()
	}
	e.live.start = time.Now()
	e.wireObservability(e.live.degree())
	if e.cfg.OnLive != nil {
		e.cfg.OnLive(e.live)
	}
	var logWg sync.WaitGroup
	var logStop chan struct{}
	if e.cfg.Obs != nil && e.cfg.Obs.LogEvery > 0 {
		logStop = make(chan struct{})
		logWg.Add(1)
		go func() {
			defer logWg.Done()
			e.logLoop(logStop)
		}()
	}
	var wg sync.WaitGroup
	for _, u := range e.units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pprof.Do(e.ictx, u.labels, func(context.Context) { e.runUnit(u) })
		}()
	}
	wg.Wait()
	e.live.finish(time.Since(e.live.start))
	if logStop != nil {
		close(logStop)
		logWg.Wait()
	}
}

// finish closes the sink, takes the final Snapshot of the probes as the
// Metrics and reconciles the fault ledger (all strictly after the unit
// goroutines joined); a serve that made its own trace sink hands its events over as
// Metrics.Trace and, on a clean completion, publishes them to the world. A
// serve that failed — a stage error, a sink error — still reports what it did.
func (e *engine) finish(ctx context.Context, world *interp.World) (*Metrics, error) {
	flushed, cerr := e.sink.Close()
	m := &Metrics{Snapshot: *e.live.Snapshot(), Flushed: flushed}
	if e.trace != nil {
		m.Trace = e.trace.Events()
	}
	m.Faults = e.faultReport(m)
	err := e.firstErr
	if err == nil {
		err = ctx.Err()
	}
	if err == nil && e.srcErr != nil && !errors.Is(e.srcErr, io.EOF) {
		err = fmt.Errorf("ingest: %w", e.srcErr)
	}
	if err == nil && cerr != nil {
		err = fmt.Errorf("sink: close: %w", cerr)
	}
	if err == nil && e.trace != nil {
		adoptTrace(world, m.Trace)
	}
	return m, err
}

// newShardRunners builds the per-replica stage runners (internal/exec: each
// stage program lowered once into a slot-indexed closure program), all on
// one fully-materialized persistent store: a replicated stage keeps no
// state, so its replicas only read tables no stage writes. Every runner is
// confined to the iteration context's pre-pulled packet (RxFromCtx), so
// concurrent replicas never race on the World's packet cursor.
func newShardRunners(stages []*ir.Program, world *interp.World, plan *shardPlan) [][]*exec.Runner {
	store := interp.NewStore(stages...)
	out := make([][]*exec.Runner, len(stages))
	for s, prog := range stages {
		out[s] = make([]*exec.Runner, plan.reps[s])
		for j := range out[s] {
			r := exec.NewRunnerShared(prog, world, store)
			r.RxFromCtx = true
			out[s][j] = r
		}
	}
	return out
}

// faultReport flushes the per-lane quarantine accounting into one
// report, after the final join — the drain path runs it on cancellation
// too, so partially-served runs still account for every fault they took.
func (e *engine) faultReport(m *Metrics) *FaultReport {
	rep := &FaultReport{Delivered: m.Packets}
	for k := range m.Stages {
		s := &m.Stages[k]
		rep.Quarantined += s.Quarantined
	}
	for i := range e.recs {
		rep.Records = append(rep.Records, e.recs[i]...)
	}
	sort.Slice(rep.Records, func(i, j int) bool {
		a, b := rep.Records[i], rep.Records[j]
		if a.Iter != b.Iter {
			return a.Iter < b.Iter
		}
		return a.Stage < b.Stage
	})
	return rep
}
