package repro

// Adaptive serving: the closed loop that WithAutotune turns on. One serve
// call becomes a sequence of rounds over the same source, world, and
// persistent store:
//
//  1. Probe: serve a short window under the current plan and take one
//     number from it, host nanoseconds per weight: the served units'
//     measured ns per iteration over their static path costs.
//  2. Enumerate: the candidates are the coarsenings of the pipeline's own
//     cut — per (batch, shards), the prefixes of the order in which the
//     valuator (costmodel.PlanFusion) would un-make its cuts, fully ringed to
//     fully fused, each addressed by its fuse mask and realized once
//     (realize, Pipeline.shape; fusion.go). WithStages(D) is thereby the
//     upper bound of the search: nothing is re-partitioned inside a serve. A
//     candidate's prior is the price costmodel.Predict puts on its layout at
//     the measured scale.
//  3. Measure: internal/tuner probes the most promising candidates with
//     real traffic and commits to the measured winner under the declared
//     objective.
//  4. Serve: run the rest of the stream on the winning realization.
//
// Correctness never depends on the tuner's taste: every round — probe or
// committed — serves real packets from the one shared source in order and
// pushes into the one sink that spans the rounds, persistent state is
// carried across rounds in one shared interp.Store (materialized per
// realization; same-ID arrays alias the same storage), and every round
// drains fully before the next starts, so the swap happens at a batch
// boundary and the stream the sink sees stays byte-identical to the
// sequential oracle no matter what the loop decides. A shape is a
// candidate only if its layout builds (what Serve would refuse is never
// probed) and forks no per-replica flow state: a fork's writes are private
// to its round, which would break state continuity across rounds.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/interp"
	"repro/internal/obsv"
	"repro/internal/runtime"
	"repro/internal/tuner"
)

// Objective declares what a served pipeline optimizes; see WithObjective.
// The zero value (and MaxThroughput) is pure throughput.
type Objective struct {
	bounded bool
	p99     time.Duration
}

// MaxThroughput returns the default objective: maximize measured packets
// per second, no latency constraint.
func MaxThroughput() Objective { return Objective{} }

// ThroughputUnderP99 returns the latency-bounded objective: maximize
// measured packets per second among configurations whose 99th-percentile
// batch latency (measured over traced batch spans) stays under bound. When
// no probed configuration meets the bound, the lowest-latency one is
// chosen. The bound must be positive (ErrBadOption otherwise).
func ThroughputUnderP99(bound time.Duration) Objective {
	return Objective{bounded: true, p99: bound}
}

// String renders the objective ("max-throughput" or "throughput-under-p99
// <bound>").
func (o Objective) String() string {
	if o.bounded {
		return fmt.Sprintf("throughput-under-p99 %v", o.p99)
	}
	return "max-throughput"
}

func (o Objective) validate() error {
	if o.bounded && o.p99 <= 0 {
		return fmt.Errorf("repro: %w: WithObjective p99 bound %v (want > 0)", ErrBadOption, o.p99)
	}
	return nil
}

// Autotune configures the adaptive search WithAutotune turns on. The zero
// value selects the defaults noted per field.
type Autotune struct {
	// ProbePackets is the length of each measured probe window, in packets
	// (default 4096). The first window sets the scale; each candidate probe
	// consumes one more.
	ProbePackets int
	// TopK is how many top-ranked candidates the tuner measures, beyond
	// which one seeded exploration pick is added (default 3).
	TopK int
	// Seed drives the exploration pick; fixed seed, fixed decision
	// (default 1).
	Seed int64
	// Batches lists the candidate serve batch sizes (default 1, 8, 32, 64).
	Batches []int
	// Shards lists the candidate shard widths (default 1, 2, 4).
	Shards []int
}

func (t *Autotune) validate() error {
	if t == nil {
		return nil
	}
	if t.ProbePackets < 0 || t.TopK < 0 || t.Seed < 0 {
		return fmt.Errorf("repro: %w: WithAutotune ProbePackets %d, TopK %d, Seed %d",
			ErrBadOption, t.ProbePackets, t.TopK, t.Seed)
	}
	for _, b := range t.Batches {
		if b < 1 {
			return fmt.Errorf("repro: %w: WithAutotune Batches candidate %d", ErrBadOption, b)
		}
	}
	for _, p := range t.Shards {
		if p < 1 || p > MaxShards {
			return fmt.Errorf("repro: %w: WithAutotune Shards candidate %d (want 1..%d)", ErrBadOption, p, MaxShards)
		}
	}
	return nil
}

// withDefaults fills the zero fields.
func (t Autotune) withDefaults() Autotune {
	if t.ProbePackets == 0 {
		t.ProbePackets = 4096
	}
	if t.TopK == 0 {
		t.TopK = 3
	}
	if t.Seed == 0 {
		t.Seed = 1
	}
	if len(t.Batches) == 0 {
		t.Batches = []int{1, 8, 32, 64}
	}
	if len(t.Shards) == 0 {
		t.Shards = []int{1, 2, 4}
	}
	return t
}

// Plan describes a Pipeline's live realization — which configuration is
// (or would be) serving and why. Before any adaptive serve it reflects the
// static cut; after WithAutotune's loop commits, it reflects the measured
// winner — always a coarsening of the same cut, so every per-stage field is
// in Pipeline.Stages' numbering. Returned by Pipeline.Plan.
type Plan struct {
	// Degree is the cut's degree D (Pipeline.Degree; Units and FusedCuts say
	// how many programs serve it). Batch and Shards are the realized
	// configuration; Shards is the effective width (1 when no stage can
	// replicate, whatever was asked).
	Degree, Batch, Shards int
	// Replicas is each stage's replica width: 1, or Shards.
	Replicas []int
	// Objective is the declared optimization objective.
	Objective string
	// Calibrated reports whether the plan's prices are scaled to host time
	// measured by an adaptive serve's probe round (false: datasheet weights
	// taken as nanoseconds).
	Calibrated bool
	// NsPerWeight is that scale: measured host nanoseconds per weight unit
	// (0 when uncalibrated).
	NsPerWeight float64
	// StageWeights is the per-stage worst-case path cost in weight units.
	StageWeights []int64
	// FusedCuts lists the 1-based cuts un-made by stage fusion — stages k
	// and k+1 around cut k are served as one re-realized program, with no
	// transmission between them, instead of two programs on an SPSC ring
	// (Units renders the result). Empty when every cut keeps its ring
	// (including under FusionOff and under a fault plan).
	FusedCuts []int
	// FusionWhy records the fusion valuator's per-cut verdicts in cut
	// order: the two-bound arithmetic behind each fuse/keep call. Empty
	// when the pipeline has one stage or fusion is off.
	FusionWhy []string
	// PredictedNsPerPkt is the cost model's price for exactly this
	// realization (costmodel.Predict over the served programs' own path
	// costs, their replica widths and the retained handoffs) — the number
	// the autotuner ranks candidates by. In nanoseconds when Calibrated, in
	// datasheet weight units otherwise.
	PredictedNsPerPkt float64
	// Why is the human-readable rationale: how the plan was chosen, with
	// the probe evidence when the autotuner chose it.
	Why string
}

// meteredSource wraps the one real packet source so each adaptive round
// consumes a bounded window of it: at most n more packets (n < 0: the rest of
// the stream), set before the round starts. Packets are handed out strictly
// in source order and exhaustion is sticky. Only one round uses it at a
// time; the happens-before edge between rounds is runtime.Serve's join.
type meteredSource struct {
	src       Source
	n         int
	exhausted bool
}

// Next hands out the next packet of the stream while the window lasts.
func (w *meteredSource) Next() ([]byte, bool) {
	if w.exhausted || w.n == 0 {
		return nil, false
	}
	if w.n > 0 {
		w.n--
	}
	pkt, ok := w.src.Next()
	if !ok {
		w.exhausted = true
		return nil, false
	}
	return pkt, true
}

// PacketsOwned and BindContext pass on what the wrapped source says of
// itself, so a round treats the ingest feeder as the static path does: the
// packets it handed over are adopted, not copied again at pkt_rx, and the
// round's internal teardown reaches a blocked read.
func (w *meteredSource) PacketsOwned() bool {
	o, ok := w.src.(interface{ PacketsOwned() bool })
	return ok && o.PacketsOwned()
}

// BindContext: see PacketsOwned.
func (w *meteredSource) BindContext(ctx context.Context) {
	if b, ok := w.src.(runtime.ContextBinder); ok {
		b.BindContext(ctx)
	}
}

// spanSink lends the serve's one sink to a round: the round pushes into it,
// and the Close the round's engine makes on its way out is held back, so the
// sink sees one stream and — from serveAdaptive — one Close.
type spanSink struct{ Sink }

func (spanSink) Close() (int64, error) { return 0, nil }

// serveAdaptive is Serve's WithAutotune path: the closed probe → enumerate
// → measure → commit loop described at the top of this file. cfg is
// the fully validated serve configuration with cfg.autotune and cfg.world
// non-nil.
func (p *Pipeline) serveAdaptive(ctx context.Context, src Source, cfg config) (m *Metrics, err error) {
	at := cfg.autotune.withDefaults()
	obj := tuner.Objective{P99Bound: cfg.objective.p99} // zero unless bounded
	cfg.serve.Store = interp.NewStore(p.stages...)
	cursor := &meteredSource{src: src}
	start := time.Now()

	// One sink spans the rounds — the caller's, or the default trace — and is
	// closed here, once, however the loop ends.
	sink, trace := cfg.serve.Sink, (*runtime.TraceSink)(nil)
	if sink == nil {
		trace = &runtime.TraceSink{}
		sink = trace
	}
	cfg.serve.Sink = spanSink{sink}
	defer func() {
		flushed, cerr := sink.Close()
		if err == nil && cerr != nil {
			err = fmt.Errorf("repro: sink: close: %w", cerr)
		}
		if m != nil {
			m.Flushed = flushed
			if trace != nil {
				m.Trace = trace.Events()
				runtime.AdoptTrace(cfg.world, m.Trace)
			}
		}
	}()

	// agg accumulates the run-wide result across rounds. Every round serves a
	// coarsening of the one cut, so its per-stage report is D long in the
	// cut's numbering and the counters sum stage by stage; which stages are
	// folded into which, the replica widths and the shard width are the last
	// completed round's, as are the ingest counters (the source keeps them
	// for the whole stream); the trace is the spanning sink's, above.
	agg := &Metrics{Snapshot: runtime.Snapshot{Stages: make([]StageStats, len(p.stages))}, Faults: &runtime.FaultReport{}}
	finish := func() (*Metrics, error) {
		agg.Elapsed = time.Since(start)
		return agg, nil
	}
	// round serves one window on one realization and folds it into agg. Each
	// round's engine numbers its packets from 0, so its fault records are
	// moved by what earlier rounds pulled: FaultRecord.Iter stays the packet's
	// index in the source's order.
	round := func(lay *runtime.Layout, n int) (*Metrics, error) {
		cursor.n = n
		m, err := lay.Serve(ctx, cfg.world, cursor)
		if err != nil {
			return nil, err
		}
		pulled := agg.Stages[0].In
		agg.Packets += m.Packets
		agg.Shards, agg.Ingest = m.Shards, m.Ingest
		for i, st := range m.Stages {
			st.Add(agg.Stages[i])
			agg.Stages[i] = st
		}
		agg.Faults.Delivered += m.Faults.Delivered
		agg.Faults.Shed += m.Faults.Shed
		agg.Faults.Quarantined += m.Faults.Quarantined
		for _, r := range m.Faults.Records {
			r.Iter += pulled
			agg.Faults.Records = append(agg.Faults.Records, r)
		}
		return m, nil
	}

	// Round 1 — probe the current static plan (unsharded when its replicas
	// would fork flow state), measuring per-stage time.
	plan, lay, err := p.realize(cfg, 1.0)
	if err == nil && lay.Forks() {
		cfg.serve.Shards = 1
		plan, lay, err = p.realize(cfg, 1.0)
	}
	if err != nil {
		return nil, err
	}
	p.plan.Store(plan)
	probe, err := round(lay, at.ProbePackets)
	if err != nil {
		return nil, err
	}
	if cursor.exhausted {
		return finish() // stream shorter than one probe window: nothing to adapt
	}

	// The one number taken from the probe: host nanoseconds per weight, the
	// measured ns per iteration of the programs the round served (a stage
	// folded into a unit books nothing of its own) over their static path
	// costs. realize multiplies it back into the same path costs, so at this
	// scale the probed plan is priced at what it measured.
	var fuse uint64
	for _, k := range plan.FusedCuts {
		fuse |= 1 << (k - 1)
	}
	var ns float64
	for _, st := range probe.Stages {
		ns += st.NsPerIteration()
	}
	var weight int64
	for _, u := range p.shape(fuse).units {
		weight += u.Cost.Total
	}
	nsPerWeight := ns / float64(weight)

	// Enumerate. The probed shape is candidate 0, so the search never comes
	// up empty; then, per (batch, shards), the prefixes of the valuator's
	// merge order for that configuration, fully ringed to fully fused. A
	// candidate exists only if its layout builds and forks no flow state;
	// shapes that realize identically (a shard width no stage can use, a mask
	// FusionOff or a fault plan does not grant) are one candidate, the first.
	// Probe rounds trace batch spans only when the objective needs latency;
	// the user's observer is reserved for the committed realization.
	type realization struct {
		plan *Plan
		lay  *runtime.Layout
	}
	probeCfg := cfg
	probeCfg.serve.Obs = nil
	var tr *obsv.Tracer
	if obj.P99Bound > 0 {
		tr = obsv.NewTracer(0)
		probeCfg.serve.Obs = &obsv.Observer{Tracer: tr}
	}
	byKey := map[string]realization{}
	var cands []tuner.Candidate
	add := func(c config, mask uint64) *Plan {
		c.fuse = &mask
		plan, lay, err := p.realize(c, nsPerWeight)
		if err != nil || lay.Forks() {
			return nil
		}
		cand := tuner.Candidate{Units: plan.Units(), Batch: plan.Batch, Shards: plan.Shards,
			Prior: 1e9 / plan.PredictedNsPerPkt}
		if _, dup := byKey[cand.Key()]; !dup {
			byKey[cand.Key()] = realization{plan, lay}
			cands = append(cands, cand)
		}
		return plan
	}
	add(probeCfg, fuse)
	for _, b := range at.Batches {
		for _, ps := range at.Shards {
			c := probeCfg
			c.serve.Batch, c.serve.Shards = b, ps
			ringed := add(c, 0)
			if ringed == nil {
				continue
			}
			var mask uint64
			for _, m := range p.valuate(c, ringed, nsPerWeight).Order {
				mask |= 1 << m.Cut
				add(c, mask)
			}
		}
	}

	// Probe the most promising candidates with real traffic and commit.
	measure := func(c tuner.Candidate) (tuner.Measurement, error) {
		if cursor.exhausted {
			return tuner.Measurement{}, fmt.Errorf("source exhausted before probe %s", c.Key())
		}
		m, err := round(byKey[c.Key()].lay, at.ProbePackets)
		if err != nil {
			return tuner.Measurement{}, err
		}
		if m.Packets == 0 {
			return tuner.Measurement{}, fmt.Errorf("source exhausted during probe %s", c.Key())
		}
		meas := tuner.Measurement{PPS: m.PacketsPerSecond()}
		if tr != nil {
			meas.P99 = obsv.Percentile(obsv.BatchLatencies(tr.Spans()), 99)
		}
		return meas, nil
	}
	decision, err := tuner.Select(cands, at.TopK, at.Seed, obj, measure)
	if err != nil {
		if cursor.exhausted {
			return finish() // stream ended mid-search: everything already served
		}
		return nil, err
	}

	// Commit: lay the winner out once more, now under the user's observer,
	// publish its plan, and serve the rest of the stream on it.
	win := byKey[decision.Chosen.Key()]
	rc := cfg.serve
	rc.Batch, rc.Shards = win.plan.Batch, win.plan.Shards
	if lay, err = win.lay.With(rc); err != nil {
		return nil, err
	}
	win.plan.Calibrated, win.plan.NsPerWeight = true, nsPerWeight
	win.plan.Why = fmt.Sprintf("%s (measured %.2f ns/weight)", decision.Why, nsPerWeight)
	p.plan.Store(win.plan)
	if _, err := round(lay, -1); err != nil {
		return nil, err
	}
	return finish()
}
