package repro

// Adaptive serving: the closed loop that WithAutotune turns on. One serve
// call becomes a sequence of rounds over the same source, world, and
// persistent store:
//
//  1. Probe: serve a short window under the current plan, measuring each
//     stage's host nanoseconds per iteration.
//  2. Calibrate: fit per-class costs to those measurements
//     (costmodel.Calibrate) and build a calibrated Arch.
//  3. Re-cut: re-run the two-phase analysis under the calibrated weights
//     (core.Analysis.Reweigh) and cut a candidate pipeline per feasible
//     degree.
//  4. Tune: score every (degree, batch, shards) candidate with the
//     calibrated model as prior, then let internal/tuner probe the most
//     promising ones with real traffic and commit to the measured winner
//     under the declared objective.
//  5. Serve: run the rest of the stream on the winning realization.
//
// Correctness never depends on the tuner's taste: every round — probe or
// committed — serves real packets from the one shared source in order,
// persistent state is carried across rounds in one shared interp.Store
// (materialized per realization; same-ID arrays alias the same storage),
// and every round drains fully before the next starts, so the swap happens
// at a batch boundary and the accumulated world.Trace stays byte-identical
// to the sequential oracle no matter what the loop decides. Candidates
// whose realization forks per-replica flow state are restricted to shard
// width 1: a fork's writes are private to its round, which would break
// state continuity across rounds.

import (
	"context"
	"fmt"
	"math"
	stdruntime "runtime"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/errs"
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
// chosen. The bound must be positive (ErrBadObjective otherwise).
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

func (o *Objective) validate() error {
	if o != nil && o.bounded && o.p99 <= 0 {
		return fmt.Errorf("repro: %w: p99 bound %v (want > 0)", ErrBadObjective, o.p99)
	}
	return nil
}

// objectiveString renders the configured objective, defaulting to
// max-throughput when none was declared.
func (c *config) objectiveString() string {
	if c.objective == nil {
		return MaxThroughput().String()
	}
	return c.objective.String()
}

// tunerObjective lowers the public objective to the tuner's form.
func (o *Objective) tunerObjective() tuner.Objective {
	if o == nil || !o.bounded {
		return tuner.Objective{}
	}
	return tuner.Objective{P99Bound: o.p99}
}

// Autotune configures the adaptive search WithAutotune turns on. The zero
// value selects the defaults noted per field.
type Autotune struct {
	// ProbePackets is the length of each measured probe window, in packets
	// (default 4096). The first window calibrates; each candidate probe
	// consumes one more.
	ProbePackets int
	// TopK is how many top-ranked candidates the tuner measures, beyond
	// which one seeded exploration pick is added (default 3).
	TopK int
	// Seed drives the exploration pick; fixed seed, fixed decision
	// (default 1).
	Seed int64
	// MaxDegree caps the candidate pipelining depths (default: the
	// analysis maximum, MaxStages).
	MaxDegree int
	// Batches lists the candidate serve batch sizes (default 1, 8, 32, 64).
	Batches []int
	// Shards lists the candidate shard widths (default 1, 2, 4).
	Shards []int
}

func (t *Autotune) validate() error {
	if t == nil {
		return nil
	}
	if t.ProbePackets < 0 || t.TopK < 0 || t.Seed < 0 ||
		t.MaxDegree < 0 || t.MaxDegree > MaxStages {
		return fmt.Errorf("repro: %w: probe %d, topK %d, seed %d, maxDegree %d",
			ErrBadAutotune, t.ProbePackets, t.TopK, t.Seed, t.MaxDegree)
	}
	for _, b := range t.Batches {
		if b < 1 {
			return fmt.Errorf("repro: %w: batch candidate %d", ErrBadAutotune, b)
		}
	}
	for _, p := range t.Shards {
		if p < 1 || p > MaxShards {
			return fmt.Errorf("repro: %w: shard candidate %d (want 1..%d)", ErrBadAutotune, p, MaxShards)
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
	if t.MaxDegree == 0 {
		t.MaxDegree = MaxStages
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
// winner. Returned by Pipeline.Plan.
type Plan struct {
	// Degree, Batch, Shards are the realized configuration.
	Degree, Batch, Shards int
	// Backend is the stage-execution backend.
	Backend Backend
	// Objective is the declared optimization objective.
	Objective string
	// Calibrated reports whether the cost model behind this plan was
	// fitted to measured per-stage times (false: datasheet weights).
	Calibrated bool
	// NsPerWeight is the fitted host nanoseconds per calibrated weight
	// unit (0 when uncalibrated).
	NsPerWeight float64
	// R2 is the calibration's goodness of fit (0 when uncalibrated).
	R2 float64
	// StageWeights is the per-stage worst-case path cost under the plan's
	// weights — calibrated units after adaptation, static units before.
	StageWeights []int64
	// FusedCuts lists the 1-based cuts realized by stage fusion — cut k
	// joins stages k and k+1 into one execution unit instead of an SPSC
	// ring. Empty when every cut keeps its ring (including under
	// FusionOff).
	FusedCuts []int
	// FusionWhy records the fusion valuator's per-cut verdicts in cut
	// order: the two-bound arithmetic behind each fuse/keep call. Empty
	// when the pipeline has one stage or fusion is off.
	FusionWhy []string
	// Why is the human-readable rationale: how the plan was chosen, with
	// the probe evidence when the autotuner chose it.
	Why string
}

// staticPlan renders the plan of a freshly cut, not-yet-adapted pipeline,
// including the fusion valuator's verdict on the static weights (under
// FusionAuto; FusionOff keeps every ring and records nothing).
func staticPlan(stages []*Program, report *Report, cfg config) *Plan {
	p := &Plan{
		Degree:    len(report.Stages),
		Batch:     max(1, cfg.batch),
		Shards:    max(1, cfg.shards),
		Backend:   cfg.backend,
		Objective: cfg.objectiveString(),
		Why:       "static cut under datasheet weights; no adaptive serve has run",
	}
	for _, s := range report.Stages {
		p.StageWeights = append(p.StageWeights, s.Cost.Total)
	}
	if cfg.fusion == FusionAuto {
		p.FusedCuts, p.FusionWhy = planFusion(stages, p.StageWeights, 1.0,
			p.Batch, p.Shards, cfg.shardKey != nil, fusionCores())
	}
	return p
}

// meteredSource wraps the one real packet source so each adaptive round
// consumes a bounded window of it. Windows hand out packets strictly in
// source order; exhaustion is sticky.
type meteredSource struct {
	src       Source
	exhausted bool
}

// window returns a Source serving at most n more packets (n < 0 means the
// rest of the stream). The returned source is only used by one round at a
// time; the happens-before edge between rounds is runtime.Serve's join.
func (m *meteredSource) window(n int) Source {
	return SourceFunc(func() ([]byte, bool) {
		if m.exhausted || n == 0 {
			return nil, false
		}
		if n > 0 {
			n--
		}
		pkt, ok := m.src.Next()
		if !ok {
			m.exhausted = true
			return nil, false
		}
		return pkt, true
	})
}

// serveAdaptive is Serve's WithAutotune path: the closed probe → calibrate
// → re-cut → tune → commit loop described at the top of this file. cfg is
// the fully validated serve configuration with cfg.autotune non-nil.
func (p *Pipeline) serveAdaptive(ctx context.Context, src Source, cfg config) (*Metrics, error) {
	at := cfg.autotune.withDefaults()
	obj := cfg.objective.tunerObjective()
	world := cfg.world
	if world == nil {
		world = NewWorld(nil)
	}
	store := interp.NewStore(p.stages...)
	cursor := &meteredSource{src: src}
	start := time.Now()

	baseRC := cfg.serveConfig()
	baseRC.Store = store

	// agg accumulates the run-wide result across rounds: packet and fault
	// totals are summed, the per-stage counters and shard width reflect the
	// last completed round, and the trace is the world's accumulated stream.
	agg := &Metrics{Faults: &runtime.FaultReport{}}
	account := func(m *Metrics) {
		agg.Packets += m.Packets
		agg.Stages = m.Stages
		agg.Shards = m.Shards
		if f := m.Faults; f != nil {
			agg.Faults.Delivered += f.Delivered
			agg.Faults.Degraded += f.Degraded
			agg.Faults.Shed += f.Shed
			agg.Faults.Quarantined += f.Quarantined
			agg.Faults.Retries += f.Retries
			agg.Faults.Records = append(agg.Faults.Records, f.Records...)
		}
	}
	finish := func() (*Metrics, error) {
		agg.Elapsed = time.Since(start)
		agg.Trace = world.Trace
		return agg, nil
	}
	// round serves one window on one realization and folds it into agg.
	round := func(stages []*Program, rc runtime.Config, n int) (*Metrics, error) {
		m, err := runtime.Serve(ctx, stages, world, cursor.window(n), rc)
		if err != nil {
			return nil, err
		}
		account(m)
		return m, nil
	}

	// effShards clamps the shard width for realizations with per-replica
	// flow-state forks, whose writes would not survive the round boundary.
	effShards := func(stages []*Program, want int) int {
		if want > 1 && runtime.HasForkedState(stages) {
			return 1
		}
		return max(1, want)
	}

	// Round 1 — probe the current static plan, measuring per-stage time.
	rc := baseRC
	rc.Shards = effShards(p.stages, rc.Shards)
	probe, err := round(p.stages, rc, at.ProbePackets)
	if err != nil {
		return nil, err
	}
	if cursor.exhausted {
		return finish() // stream shorter than one probe window: nothing to adapt
	}

	// Calibrate the cost model from the measured per-stage times. A failed
	// fit (degenerate measurements) falls back to the static weights; the
	// tuner still runs, ranking candidates by the datasheet model.
	arch := cfg.arch
	samples := make([]costmodel.Sample, len(p.stages))
	for i, st := range probe.Stages {
		samples[i] = costmodel.Sample{
			Counts:    costmodel.CountOps(p.stages[i].Func, arch),
			NsPerIter: st.NsPerIteration(),
			Iters:     st.In,
		}
	}
	analysis := p.analysis
	nsPerWeight := 1.0
	var cal *costmodel.Calibration
	if c, err := costmodel.Calibrate(arch, samples); err == nil {
		if re, err := analysis.Reweigh(c.Arch); err == nil {
			cal, analysis, nsPerWeight = c, re, c.NsPerWeight
		}
	}

	// Cut a candidate realization per feasible degree under the (possibly
	// calibrated) weights, and enumerate the (degree, batch, shards,
	// fused) space with the model's predicted throughput as prior. The
	// prediction takes the tighter of two bounds: the pipeline bound (the
	// bottleneck stage, divided across shard replicas) and the CPU bound
	// (all stages' work must share the host's processors — on a small host
	// a deep pipeline buys nothing, and the prior must know that or it
	// would spend every probe on candidates that cannot win). The
	// per-ring-entry synchronization estimate (ringSyncNsSPSC, fusion.go)
	// is the ring's measured blocked-handoff cost — it only has to order
	// batch sizes plausibly; measurements make
	// the actual choice. When the fusion valuator finds cuts not worth their
	// ring at a given (degree, batch), the fused realization enters the
	// space as its own candidate and competes on the same two bounds, with
	// the handoff tax charged per realized unit instead of per stage.
	ncpu := float64(stdruntime.GOMAXPROCS(0))
	cuts := map[int]*core.Result{}
	fusePlans := map[[2]int]costmodel.FusionPlan{} // (degree, batch) -> valuation
	var cands []tuner.Candidate
	maxD := min(at.MaxDegree, MaxStages)
	for d := 1; d <= maxD; d++ {
		res, err := analysis.Partition(core.Options{
			Stages: d, Epsilon: cfg.epsilon, Channel: cfg.channel, Tx: cfg.tx,
		})
		if err != nil || runtime.Validate(res.Stages) != nil {
			continue
		}
		cuts[d] = res
		bottleneck := float64(res.Report.Stages[res.Report.LongestStage-1].Cost.Total) * nsPerWeight
		var work float64
		stageNs := make([]float64, d)
		for i, s := range res.Report.Stages {
			stageNs[i] = float64(s.Cost.Total) * nsPerWeight
			work += stageNs[i]
		}
		for _, b := range at.Batches {
			sync := ringSyncNsSPSC / float64(b)
			var fp costmodel.FusionPlan
			if cfg.fusion != FusionOff && d > 1 {
				fp = costmodel.PlanFusion(stageNs, sync, int(ncpu))
				if fp.Units < d {
					fusePlans[[2]int{d, b}] = fp
				}
			}
			for _, ps := range at.Shards {
				if ps != effShards(res.Stages, ps) {
					continue // forked flow state: replica widths unsound across rounds
				}
				pipeBound := bottleneck/float64(ps) + sync
				cpuBound := (work + float64(d)*sync) / ncpu
				perPkt := math.Max(pipeBound, cpuBound)
				cands = append(cands, tuner.Candidate{
					Degree: d, Batch: b, Shards: ps, Prior: 1e9 / perPkt,
				})
				if fp.Units > 0 && fp.Units < d {
					// The fused realization of the same shape: fewer units,
					// fewer handoffs, a (possibly) taller bottleneck. Shard
					// junctions may veto individual cuts at serve time; the
					// prior ignores that, measurements correct it.
					us := fusedUnitCosts(stageNs, fp.FuseCuts)
					var btlU float64
					for _, u := range us {
						btlU = math.Max(btlU, u)
					}
					pipeF := btlU / float64(ps)
					if len(us) > 1 {
						pipeF += sync
					}
					cpuF := (work + float64(len(us))*sync) / ncpu
					cands = append(cands, tuner.Candidate{
						Degree: d, Batch: b, Shards: ps, Fused: true,
						Prior: 1e9 / math.Max(pipeF, cpuF),
					})
				}
			}
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("repro: %w: no feasible candidate realization", errs.ErrBadCalibration)
	}

	// Probe the most promising candidates with real traffic and commit.
	// Probe rounds trace batch spans only when the objective needs latency;
	// the user's observer is reserved for the committed realization.
	measure := func(c tuner.Candidate) (tuner.Measurement, error) {
		if cursor.exhausted {
			return tuner.Measurement{}, fmt.Errorf("source exhausted before probe %s", c.Key())
		}
		rc := baseRC
		rc.Batch = c.Batch
		rc.Shards = c.Shards
		rc.FuseCuts = nil
		if c.Fused {
			rc.FuseCuts = fusePlans[[2]int{c.Degree, c.Batch}].FuseCuts
		}
		rc.Obs = nil
		var tr *obsv.Tracer
		if obj.P99Bound > 0 {
			tr = obsv.NewTracer(0)
			rc.Obs = &obsv.Observer{Tracer: tr}
		}
		m, err := round(cuts[c.Degree].Stages, rc, at.ProbePackets)
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

	// Commit: publish the plan and serve the rest of the stream on the
	// winner, with the user's observer attached.
	win := decision.Chosen
	plan := &Plan{
		Degree:      win.Degree,
		Batch:       win.Batch,
		Shards:      win.Shards,
		Backend:     cfg.backend,
		Objective:   cfg.objectiveString(),
		Calibrated:  cal != nil,
		NsPerWeight: nsPerWeight,
		Why:         decision.Why,
	}
	if cal != nil {
		plan.R2 = cal.R2
		plan.Why = fmt.Sprintf("%s (calibrated, R²=%.3f, %.2f ns/weight)", decision.Why, cal.R2, cal.NsPerWeight)
	} else {
		plan.NsPerWeight = 0
		plan.Why = decision.Why + " (uncalibrated: fit failed, datasheet prior)"
	}
	for _, s := range cuts[win.Degree].Report.Stages {
		plan.StageWeights = append(plan.StageWeights, s.Cost.Total)
	}
	rc = baseRC
	rc.Batch = win.Batch
	rc.Shards = win.Shards
	if win.Fused {
		// Publish what will actually fuse: the valuator's mask intersected
		// with the winner's shard-aligned cuts (junctions keep their ring).
		fp := fusePlans[[2]int{win.Degree, win.Batch}]
		rc.FuseCuts = fp.FuseCuts
		aligned := runtime.AlignedCuts(cuts[win.Degree].Stages, rc.Shards, cfg.shardKey != nil)
		for k, f := range fp.FuseCuts {
			if f && aligned[k] {
				plan.FusedCuts = append(plan.FusedCuts, k+1)
			}
		}
		for _, dec := range fp.Decisions {
			plan.FusionWhy = append(plan.FusionWhy, dec.Why)
		}
	}
	p.plan.Store(plan)

	if _, err := round(cuts[win.Degree].Stages, rc, -1); err != nil {
		return nil, err
	}
	return finish()
}
