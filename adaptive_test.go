package repro_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/netbench"
	"repro/internal/runtime/fault"
)

// adaptSrc is a PPS with enough heterogeneous work (table lookups, header
// arithmetic, a persistent counter) that cutting it at another degree has
// real choices to make.
const adaptSrc = `pps Adapt {
	var total[1];
	loop {
		var n = pkt_rx();
		if (n < 0) { continue; }
		var b0 = pkt_byte(0);
		var h = hash_crc(b0 * 31 + n);
		var hop = rt_lookup(h & 0xFF);
		var c = csum_fold(h + hop);
		total[0] = total[0] + 1;
		meta_set(0, c & 0xFFFF);
		trace((hop + c + total[0]) & 0xFF);
		pkt_send(hop & 1);
	}
}`

// TestAdaptiveServeTraceIdentity is the adaptive loop's correctness gate: a
// WithAutotune serve — probe, candidate shapes, candidate probes, commit, all
// mid-stream — must produce a trace byte-identical to the sequential
// oracle over the whole stream. Run under -race via ci.sh.
func TestAdaptiveServeTraceIdentity(t *testing.T) {
	prog := repro.MustCompile(adaptSrc)
	const n = 6000
	packets := testPackets(n)
	seq := seqTrace(t, prog, packets, n)

	pipe, err := repro.Partition(prog, repro.WithStages(3))
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipe.Serve(context.Background(), repro.PacketSource(packets),
		repro.WithAutotune(repro.Autotune{ProbePackets: 500, TopK: 2, Batches: []int{1, 8}, Shards: []int{1, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	if m.Packets != n {
		t.Fatalf("served %d packets, want %d", m.Packets, n)
	}
	if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatalf("adaptive serve diverged from the sequential oracle: %s", diff)
	}
	if m.Faults.Accounted() != n {
		t.Errorf("accounting hole: %s", m.Faults)
	}

	plan := pipe.Plan()
	if plan == nil {
		t.Fatal("no plan published")
	}
	if plan.Why == "" || plan.Degree != pipe.Degree() || plan.Batch < 1 || plan.Shards < 1 {
		t.Errorf("implausible plan: %+v", plan)
	}
	if !plan.Calibrated {
		t.Errorf("plan not calibrated: %s", plan.Why)
	}
	if plan.NsPerWeight <= 0 || !strings.Contains(plan.Why, "ns/weight") {
		t.Errorf("measured scale missing from plan: %v ns/weight: %s", plan.NsPerWeight, plan.Why)
	}
	if len(plan.StageWeights) != plan.Degree {
		t.Errorf("plan has %d stage weights for degree %d", len(plan.StageWeights), plan.Degree)
	}
}

// TestAdaptiveServeShortStream: a stream shorter than one probe window
// must still be served completely and exactly, with nothing to adapt.
func TestAdaptiveServeShortStream(t *testing.T) {
	prog := repro.MustCompile(adaptSrc)
	const n = 40
	packets := testPackets(n)
	seq := seqTrace(t, prog, packets, n)

	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipe.Serve(context.Background(), repro.PacketSource(packets),
		repro.WithAutotune(repro.Autotune{ProbePackets: 1000}))
	if err != nil {
		t.Fatal(err)
	}
	if m.Packets != n {
		t.Fatalf("served %d packets, want %d", m.Packets, n)
	}
	if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatalf("short adaptive serve diverged: %s", diff)
	}
	// The loop never reached a decision, so the plan still reflects the
	// static cut.
	if pipe.Plan().Calibrated {
		t.Error("plan claims calibration on an unadapted run")
	}
}

// TestAdaptiveProbeOnFusedPlan: the probe round runs the static plan, and
// when that plan fuses cuts the round serves coarsened programs — here D=3
// with cut 2 un-made, so two programs stand for three stages. A stream that
// ends inside the probe window shows the round's shape in the Metrics (stage
// 3 reported inside stage 2, which saw every packet); a longer one must take
// its scale from the two programs that ran — their path costs against the
// time booked under each one's first stage, the folded entry booking nothing
// — and stay exact through the search.
func TestAdaptiveProbeOnFusedPlan(t *testing.T) {
	t.Parallel()
	prog := repro.MustCompile(adaptSrc)
	const n = 6000
	packets := testPackets(n)
	seq := seqTrace(t, prog, packets, n)
	at := repro.Autotune{ProbePackets: 500, TopK: 2, Batches: []int{1, 8}, Shards: []int{1}}

	pipe, err := repro.Partition(prog, repro.WithStages(3), repro.WithFuseMaskForTest(0b10))
	if err != nil {
		t.Fatal(err)
	}
	if got := pipe.Plan().Units(); got != "[1] [2+3]" {
		t.Fatalf("static plan serves %s, want [1] [2+3]", got)
	}
	short, err := pipe.Serve(context.Background(), repro.PacketSource(packets[:40]), repro.WithAutotune(at))
	if err != nil {
		t.Fatal(err)
	}
	if len(short.Stages) != 3 || short.Stages[1].In != 40 || short.Stages[1].FusedInto != 0 || short.Stages[2].FusedInto != 2 {
		t.Errorf("probe round did not serve [1] [2+3]: %+v", short.Stages)
	}
	if diff := repro.TraceEqual(seqTrace(t, prog, packets[:40], 40), short.Trace); diff != "" {
		t.Fatalf("probe round on the fused plan diverged: %s", diff)
	}

	m, err := pipe.Serve(context.Background(), repro.PacketSource(packets), repro.WithAutotune(at))
	if err != nil {
		t.Fatal(err)
	}
	if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatalf("adaptive serve from a fused probe diverged: %s", diff)
	}
	plan := pipe.Plan()
	if m.Packets != n || !plan.Calibrated || plan.NsPerWeight <= 0 {
		t.Errorf("served %d of %d; calibrated %v at %v ns/weight: %s", m.Packets, n, plan.Calibrated, plan.NsPerWeight, plan.Why)
	}
}

// TestAdaptiveServeP99Objective exercises the latency-bounded objective
// end to end: the loop must still be exact, and the plan must carry the
// declared objective.
func TestAdaptiveServeP99Objective(t *testing.T) {
	prog := repro.MustCompile(adaptSrc)
	const n = 4000
	packets := testPackets(n)
	seq := seqTrace(t, prog, packets, n)

	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipe.Serve(context.Background(), repro.PacketSource(packets),
		repro.WithObjective(repro.ThroughputUnderP99(50*time.Millisecond)),
		repro.WithAutotune(repro.Autotune{ProbePackets: 400, TopK: 2, Batches: []int{1, 16}, Shards: []int{1}}))
	if err != nil {
		t.Fatal(err)
	}
	if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatalf("p99-bounded adaptive serve diverged: %s", diff)
	}
	if got := pipe.Plan().Objective; got != "throughput-under-p99 50ms" {
		t.Errorf("plan objective = %q", got)
	}
}

// TestAdaptiveServeDeterministicPlan: with a fixed seed and fixed
// candidate space, two adaptive serves over identical streams must commit
// to the same configuration (measured throughput varies run to run, but
// the decision machinery itself is seeded; the probe set is, and with one
// candidate in the space — FusionOff leaves only the ringed chain of the one
// cut — the committed plan is stable).
func TestAdaptiveServeDeterministicPlan(t *testing.T) {
	prog := repro.MustCompile(adaptSrc)
	const n = 3000
	packets := testPackets(n)

	serve := func() *repro.Plan {
		pipe, err := repro.Partition(prog, repro.WithStages(2), repro.WithBatch(32), repro.WithFusion(repro.FusionOff))
		if err != nil {
			t.Fatal(err)
		}
		_, err = pipe.Serve(context.Background(), repro.PacketSource(packets),
			repro.WithAutotune(repro.Autotune{ProbePackets: 400, TopK: 1, Seed: 7, Batches: []int{32}, Shards: []int{1}}))
		if err != nil {
			t.Fatal(err)
		}
		return pipe.Plan()
	}
	a, b := serve(), serve()
	if a.Units() != b.Units() || a.Batch != b.Batch || a.Shards != b.Shards {
		t.Errorf("plans diverged: %+v vs %+v", a, b)
	}
	if a.Units() != "[1] [2]" || a.Batch != 32 || !strings.Contains(a.Why, "from 1 probes") {
		t.Errorf("constrained search chose %+v, want the one candidate [1] [2]/b32", a)
	}
}

// TestAdaptiveProbePricedAtItsMeasurement: the scale the probe round yields
// is its measured ns per iteration over its units' path costs, and realize
// multiplies it back into the same costs, so a plan of the probed shape is
// priced at what the probe measured. A one-shape search space (D=1, batch
// 32) commits the probed shape; the probe round's own counters are read off
// the registry while the first candidate probe, which runs unobserved, pulls
// its first packet.
func TestAdaptiveProbePricedAtItsMeasurement(t *testing.T) {
	prog := repro.MustCompile(adaptSrc)
	const n, window = 3000, 400
	packets := testPackets(n)
	pipe, err := repro.Partition(prog, repro.WithStages(1), repro.WithBatch(32))
	if err != nil {
		t.Fatal(err)
	}
	reg := repro.NewRegistry()
	var busy, in int64
	next := 0
	src := repro.SourceFunc(func() ([]byte, bool) {
		if next == window {
			snap := reg.Snapshot()
			busy, in = snap["pipeline.stage1.busy_ns"].(int64), snap["pipeline.stage1.in"].(int64)
		}
		if next == n {
			return nil, false
		}
		next++
		return packets[next-1], true
	})
	m, err := pipe.Serve(context.Background(), src, repro.WithObserver(&repro.Observer{Registry: reg}),
		repro.WithAutotune(repro.Autotune{ProbePackets: window, TopK: 1, Batches: []int{32}, Shards: []int{1}}))
	if err != nil {
		t.Fatal(err)
	}
	if diff := repro.TraceEqual(seqTrace(t, prog, packets, n), m.Trace); diff != "" {
		t.Fatalf("trace diverges from oracle: %s", diff)
	}
	plan := pipe.Plan()
	if in != window || busy <= 0 || plan.Degree != 1 || plan.Batch != 32 {
		t.Fatalf("probe round saw %d packets in %d ns; committed %+v", in, busy, plan)
	}
	if got := plan.PredictedNsPerPkt * float64(in); math.Abs(got-float64(busy)) > 1e-6*float64(busy) {
		t.Errorf("probed shape priced at %v ns over the %d-packet window, the probe measured %d ns (%s)", got, in, busy, plan.Why)
	}
}

// TestObjectiveAndAutotuneValidation pins the new sentinels.
func TestObjectiveAndAutotuneValidation(t *testing.T) {
	prog := repro.MustCompile(adaptSrc)
	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	src := repro.PacketSource(testPackets(1))

	if _, err := pipe.Serve(ctx, src, repro.WithObjective(repro.ThroughputUnderP99(0))); !errors.Is(err, repro.ErrBadOption) {
		t.Errorf("zero p99 bound err = %v, want ErrBadOption", err)
	}
	if _, err := pipe.Serve(ctx, src, repro.WithAutotune(repro.Autotune{ProbePackets: -1})); !errors.Is(err, repro.ErrBadOption) {
		t.Errorf("negative probe window err = %v, want ErrBadOption", err)
	}
	if _, err := pipe.Serve(ctx, src, repro.WithAutotune(repro.Autotune{Shards: []int{99}})); !errors.Is(err, repro.ErrBadOption) {
		t.Errorf("oversized shard candidate err = %v, want ErrBadOption", err)
	}
	if _, err := pipe.Serve(ctx, src, repro.WithAutotune(repro.Autotune{Batches: []int{0}})); !errors.Is(err, repro.ErrBadOption) {
		t.Errorf("zero batch candidate err = %v, want ErrBadOption", err)
	}

	// MaxThroughput is always valid, with or without autotune.
	if _, err := pipe.Serve(ctx, repro.PacketSource(testPackets(4)), repro.WithObjective(repro.MaxThroughput())); err != nil {
		t.Errorf("MaxThroughput serve err = %v", err)
	}
}

// TestPlanStatic: before any adaptive serve, Plan reflects the static cut.
func TestPlanStatic(t *testing.T) {
	prog := repro.MustCompile(adaptSrc)
	pipe, err := repro.Partition(prog, repro.WithStages(3), repro.WithBatch(16))
	if err != nil {
		t.Fatal(err)
	}
	plan := pipe.Plan()
	if plan == nil {
		t.Fatal("nil static plan")
	}
	if plan.Degree != 3 || plan.Batch != 16 || plan.Shards != 1 {
		t.Errorf("static plan = %+v, want d3/b16/p1", plan)
	}
	if plan.Calibrated {
		t.Error("static plan claims calibration")
	}
	if plan.Objective != "max-throughput" {
		t.Errorf("static objective = %q", plan.Objective)
	}
	if len(plan.StageWeights) != 3 {
		t.Errorf("static plan has %d stage weights", len(plan.StageWeights))
	}

	// Shards is the realized width, not the request: when every stage holds
	// cross-flow state nothing replicates, whatever WithShards asked for.
	cross, err := repro.Partition(repro.MustCompile(crossSrc), repro.WithStages(2), repro.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if plan := cross.Plan(); plan.Shards != 1 || fmt.Sprint(plan.Replicas) != "[1 1]" {
		t.Errorf("all-cross-flow plan: shards %d replicas %v, want 1 and [1 1]", plan.Shards, plan.Replicas)
	}
}

// junctionSrc is adaptSrc with its counter made persistent: the stage that
// holds it is cross-flow and stays unreplicated, the stages before it are
// stateless and shard, so a sharded D=3 cut runs at widths [P P 1] — one
// aligned cut and one fan-in junction.
var junctionSrc = strings.Replace(strings.Replace(adaptSrc, "Adapt", "Junction", 1),
	"var total[1];", "persistent var total[1];", 1)

// crossSrc keeps a persistent counter on each side of its D=2 cut: both
// stages are cross-flow, so no shard width can replicate anything.
const crossSrc = `pps Cross {
	persistent var a[1];
	persistent var b[1];
	loop {
		var n = pkt_rx();
		if (n < 0) { continue; }
		a[0] = a[0] + 1;
		var h = hash_crc(pkt_byte(0) * 31 + a[0]);
		var c = csum_fold(h + n);
		b[0] = b[0] + (c & 7);
		trace((c + b[0]) & 0xFF);
		pkt_send(c & 1);
	}
}`

// checkPlanCoherent asserts that a Plan does not contradict itself: the
// per-cut verdicts (when recorded) cover every cut, a line says "fuse cut
// k" exactly when k is in FusedCuts, and a fused cut joins stages of equal
// replica width.
func checkPlanCoherent(t *testing.T, plan *repro.Plan) {
	t.Helper()
	fused := map[int]bool{}
	for _, k := range plan.FusedCuts {
		fused[k] = true
		if plan.Replicas[k-1] != plan.Replicas[k] {
			t.Errorf("cut %d fused across replica widths %v", k, plan.Replicas)
		}
	}
	if n := len(plan.FusionWhy); n != plan.Degree-1 && (n != 0 || len(fused) > 0) {
		t.Errorf("%d verdicts for %d cuts (fused %v)", n, plan.Degree-1, plan.FusedCuts)
	}
	for i, why := range plan.FusionWhy {
		saysFuse := strings.HasPrefix(why, fmt.Sprintf("fuse cut %d:", i+1))
		if !saysFuse && !strings.HasPrefix(why, fmt.Sprintf("keep cut %d:", i+1)) {
			t.Errorf("verdict %d is about another cut: %q", i+1, why)
		}
		if saysFuse != fused[i+1] {
			t.Errorf("FusedCuts %v, but the plan says %q", plan.FusedCuts, why)
		}
	}
}

// TestPlanIsTheServedRealization: Plan reports what the layout says and
// the engine executes that layout, so the replica widths and shard width
// Plan publishes are the ones the served Metrics count — ringed, fused, at
// a shard junction, and when nothing can replicate.
func TestPlanIsTheServedRealization(t *testing.T) {
	defer repro.SetFusionCoresForTest(1)() // the valuator wants every cut fused
	const n = 512
	packets := testPackets(n)
	for _, tc := range []struct {
		name      string
		src       string
		opts      []repro.Option
		replicas  string
		fusedCuts string
	}{
		{"ringed", junctionSrc, []repro.Option{repro.WithStages(3), repro.WithFusion(repro.FusionOff)}, "[1 1 1]", "[]"},
		{"fused", junctionSrc, []repro.Option{repro.WithStages(3)}, "[1 1 1]", "[1 2]"},
		{"sharded junction", junctionSrc, []repro.Option{repro.WithStages(3), repro.WithShards(2)}, "[2 2 1]", "[1]"},
		{"nothing replicates", crossSrc, []repro.Option{repro.WithStages(2), repro.WithShards(4)}, "[1 1]", "[1]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := repro.MustCompile(tc.src)
			pipe, err := repro.Partition(prog, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			m, err := pipe.Serve(context.Background(), repro.PacketSource(packets))
			if err != nil {
				t.Fatal(err)
			}
			if diff := repro.TraceEqual(seqTrace(t, prog, packets, n), m.Trace); diff != "" {
				t.Fatalf("trace diverges from oracle: %s", diff)
			}
			plan := pipe.Plan()
			checkPlanCoherent(t, plan)
			if got := fmt.Sprint(plan.Replicas); got != tc.replicas {
				t.Errorf("Plan.Replicas = %s, want %s", got, tc.replicas)
			}
			if got := fmt.Sprint(plan.FusedCuts); got != tc.fusedCuts {
				t.Errorf("Plan.FusedCuts = %s, want %s (%q)", got, tc.fusedCuts, plan.FusionWhy)
			}
			if plan.Shards != m.Shards {
				t.Errorf("Plan.Shards = %d, served Metrics.Shards = %d", plan.Shards, m.Shards)
			}
			for k, st := range m.Stages {
				if plan.Replicas[k] != st.Replicas {
					t.Errorf("stage %d: Plan.Replicas %d, served with %d", k+1, plan.Replicas[k], st.Replicas)
				}
			}
		})
	}
}

// TestPlanPredictedNsPerPkt: the figure Plan publishes prices what is
// served. On one core the D=4 cut fuses whole and is served as one
// re-realized program, so the price is that program's own path cost — the
// D=1 partition's — which undercuts both the sum of the four stages (each
// pays for transmissions the unit does not make) and the valuator's trial
// figure, which only drops the sends and receives.
func TestPlanPredictedNsPerPkt(t *testing.T) {
	defer repro.SetFusionCoresForTest(1)()
	prog := repro.MustCompile(facadeSrc)
	pipe, err := repro.Partition(prog, repro.WithStages(4))
	if err != nil {
		t.Fatal(err)
	}
	one, err := repro.Partition(prog, repro.WithStages(1))
	if err != nil {
		t.Fatal(err)
	}
	plan := pipe.Plan()
	if got, want := plan.PredictedNsPerPkt, float64(one.Report().Stages[0].Cost.Total); got != want {
		t.Errorf("PredictedNsPerPkt = %v, want the D=1 program's path cost %v", got, want)
	}
	var sum int64
	for _, w := range plan.StageWeights {
		sum += w
	}
	// The valuator's figure for the fully fused cut is where its descent ends.
	trial := math.Inf(1)
	for _, why := range plan.FusionWhy {
		var after float64
		if _, err := fmt.Sscanf(why[strings.Index(why, "-> "):], "-> %f ns/pkt", &after); err != nil {
			t.Fatalf("verdict %q: %v", why, err)
		}
		trial = min(trial, after)
	}
	if !(plan.PredictedNsPerPkt <= trial && trial < float64(sum)) {
		t.Errorf("served price %v, valuator's trial %v, member sum %d: want served <= trial < sum",
			plan.PredictedNsPerPkt, trial, sum)
	}
}

// TestSameUnitSamePrice: a D-stage cut fully fused and a one-stage pipeline
// are the same program, so the tuner's prior must price them equally (and
// below the ringed realization, which pays for its transmissions and its
// handoffs).
func TestSameUnitSamePrice(t *testing.T) {
	defer repro.SetFusionCoresForTest(1)()
	prog := repro.MustCompile(facadeSrc)
	price := func(opts ...repro.Option) float64 {
		pipe, err := repro.Partition(prog, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return pipe.Plan().PredictedNsPerPkt
	}
	fused, single := price(repro.WithStages(4)), price(repro.WithStages(1))
	ringed := price(repro.WithStages(4), repro.WithFusion(repro.FusionOff))
	if fused != single {
		t.Errorf("fully fused D=4 priced %v, D=1 %v; want the same", fused, single)
	}
	if ringed <= fused {
		t.Errorf("ringed D=4 priced %v, not above the fused %v", ringed, fused)
	}
}

// TestAdaptiveServeUnderShed: under a shedding policy the batch may not
// exceed the ring, so half of the default batch candidates — the ones the
// prior ranks first — are shapes Serve refuses. They must never become
// candidates: a probe that cannot start used to cost the search its top-K
// (leaving the choice to the one exploration pick) or fail the whole serve
// mid-stream, dropping the results of the packets already served. The long
// watermark keeps the policy from ever engaging, so the trace stays
// comparable to the oracle.
func TestAdaptiveServeUnderShed(t *testing.T) {
	prog := repro.MustCompile(adaptSrc)
	const n = 24000
	packets := testPackets(n)
	pipe, err := repro.Partition(prog, repro.WithStages(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipe.Serve(context.Background(), repro.PacketSource(packets),
		repro.WithOverload(repro.OverloadShed), repro.WithWatermark(5000),
		repro.WithAutotune(repro.Autotune{}))
	if err != nil || m == nil {
		t.Fatalf("adaptive serve under shed: metrics %v, err %v", m, err)
	}
	if m.Packets != n || m.Faults.Accounted() != n || m.Stages[0].In != n {
		t.Errorf("served %d of %d packets, %d pulled; ledger: %s", m.Packets, n, m.Stages[0].In, m.Faults)
	}
	if diff := repro.TraceEqual(seqTrace(t, prog, packets, n), m.Trace); diff != "" {
		t.Fatalf("trace diverges from oracle: %s", diff)
	}
	if plan := pipe.Plan(); plan.Batch > 8 || !strings.HasPrefix(plan.Why, "chose ") || strings.Contains(plan.Why, "=err(") {
		t.Errorf("committed batch %d (the ring holds 8): %s", plan.Batch, plan.Why)
	}

	// A search space with nothing servable in it keeps the realization
	// that is already serving instead of failing the stream.
	m, err = pipe.Serve(context.Background(), repro.PacketSource(packets[:3000]),
		repro.WithOverload(repro.OverloadShed), repro.WithWatermark(5000),
		repro.WithAutotune(repro.Autotune{ProbePackets: 500, Batches: []int{64}}))
	if err != nil || m.Packets != 3000 {
		t.Fatalf("all-infeasible search space: metrics %+v, err %v", m, err)
	}
	if plan := pipe.Plan(); plan.Batch != 1 || !strings.HasPrefix(plan.Why, "chose [1]/b01/p01 ") {
		t.Errorf("all-infeasible search space committed %+v", plan)
	}
}

// TestAdaptivePlanCoherentAtJunctions: the plan an adaptive serve commits
// is assembled by the same function as the static one, so at a shard
// junction a cut the layout keeps ringed reads "keep cut k: shard
// junction", never "fuse cut k" while absent from FusedCuts. One core
// makes the valuator want every cut of the [P P 1] shape; a fault plan names
// stages, so the never-firing fault at stage 3 leaves the search only the
// ringed chain, which keeps every cut and says "keep cut k" for each.
func TestAdaptivePlanCoherentAtJunctions(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prog := repro.MustCompile(junctionSrc)
	const n = 2400
	packets := testPackets(n)
	seq := seqTrace(t, prog, packets, n)
	never := &fault.Plan{Injections: []fault.Injection{{Kind: fault.Stall, Stage: 3, At: 1 << 40}}}
	for trial := 0; trial < 12; trial++ {
		pipe, err := repro.Partition(prog, repro.WithStages(3), repro.WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		m, err := pipe.Serve(context.Background(), repro.PacketSource(packets), repro.WithFaultsForTest(never),
			repro.WithAutotune(repro.Autotune{ProbePackets: 300, TopK: 6, Batches: []int{1}, Shards: []int{2}}))
		if err != nil {
			t.Fatal(err)
		}
		if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
			t.Fatalf("trial %d: trace diverges from oracle: %s", trial, diff)
		}
		plan := pipe.Plan()
		checkPlanCoherent(t, plan)
		if len(plan.FusedCuts) != 0 || plan.Shards != m.Shards || strings.Contains(plan.Why, "=err(") {
			t.Errorf("trial %d: fused %v, Plan.Shards %d vs served %d: %s", trial, plan.FusedCuts, plan.Shards, m.Shards, plan.Why)
		}
	}
}

// TestAdaptiveFaultRecordsInSourceOrder: every round of an adaptive serve
// runs a fresh engine that numbers its packets from 0, and FaultRecord.Iter
// is the packet's index in the source's order — so a round's records are
// moved by what earlier rounds pulled. A panic at stage 1, iteration 5 fires
// once per round (each round binds the plan anew); every round but the last
// pulls exactly one probe window, so record i must name packet 5 + i·window.
func TestAdaptiveFaultRecordsInSourceOrder(t *testing.T) {
	const n, window, at = 3000, 200, 5
	pipe, err := repro.Partition(repro.MustCompile(adaptSrc), repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipe.Serve(context.Background(), repro.PacketSource(testPackets(n)),
		repro.WithFaultsForTest(&fault.Plan{Injections: []fault.Injection{{Kind: fault.Panic, Stage: 1, At: at}}}),
		repro.WithAutotune(repro.Autotune{ProbePackets: window, TopK: 2, Batches: []int{1, 8}, Shards: []int{1, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Faults
	if len(rep.Records) < 3 || int64(len(rep.Records)) != rep.Quarantined || rep.Accounted() != n || m.Stages[0].In != n {
		t.Fatalf("want a quarantine per round (probe, candidates, commit) and %d packets pulled and accounted (pulled %d):\n%s",
			n, m.Stages[0].In, rep)
	}
	for i, rec := range rep.Records {
		if want := int64(at + i*window); rec.Iter != want || rec.Stage != 1 {
			t.Errorf("record %d: %+v, want stage 1, source-order iteration %d", i, rec, want)
		}
	}
}

// candidateKey matches one candidate key inside Plan().Why: the served units
// as Plan.Units prints them, then the batch and the shard width.
var candidateKey = regexp.MustCompile(`(\[[0-9+\] \[×]+)/b(\d+)/p(\d+)`)

// TestAdaptiveSearchesOwnCut: the adaptive loop searches the coarsenings of
// the pipeline's own cut and nothing else. With TopK above the size of the
// space every candidate is probed and so named in Plan().Why: each is a run
// of contiguous stage groups covering 1..D, the fully ringed and the fully
// fused shapes are both among them, there are at most D per (batch, shards),
// and the committed plan still describes pipe.Stages() — D stages, D weights.
// Autotune{} on the D=4 IPv4 cut needs no more than its five probe windows of
// a 100 k-packet stream to commit.
func TestAdaptiveSearchesOwnCut(t *testing.T) {
	prog := repro.MustCompile(adaptSrc)
	const n, d = 4000, 4
	packets := testPackets(n)
	at := repro.Autotune{ProbePackets: 100, TopK: 64, Batches: []int{1, 8}, Shards: []int{1, 2}}
	pipe, err := repro.Partition(prog, repro.WithStages(d))
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipe.Serve(context.Background(), repro.PacketSource(packets), repro.WithAutotune(at))
	if err != nil {
		t.Fatal(err)
	}
	if diff := repro.TraceEqual(seqTrace(t, prog, packets, n), m.Trace); diff != "" {
		t.Fatalf("trace diverges from oracle: %s", diff)
	}
	plan := pipe.Plan()
	if plan.Degree != pipe.Degree() || len(plan.StageWeights) != d || len(plan.Replicas) != d || len(m.Stages) != d {
		t.Errorf("committed plan is not a shape of the D=%d cut: %+v", d, plan)
	}
	keys := map[string]bool{}
	for _, k := range candidateKey.FindAllStringSubmatch(plan.Why, -1) {
		keys[k[0]] = true
		next := 1 // the stage the next unit must start at
		for _, unit := range strings.Fields(k[1]) {
			unit = strings.TrimLeft(unit[:strings.Index(unit, "]")], "[")
			for _, s := range strings.Split(unit, "+") {
				if s != fmt.Sprint(next) {
					t.Errorf("candidate %s is not a contiguous coarsening of stages 1..%d", k[0], d)
				}
				next++
			}
		}
		if next != d+1 {
			t.Errorf("candidate %s covers %d stages, want %d", k[0], next-1, d)
		}
	}
	if !keys["[1] [2] [3] [4]/b01/p01"] || !keys["[1+2+3+4]/b01/p01"] {
		t.Errorf("fully ringed and fully fused are not both candidates: %s", plan.Why)
	}
	if max := d * len(at.Batches) * len(at.Shards); len(keys) < 2*len(at.Batches) || len(keys) > max {
		t.Errorf("%d candidates probed, want at most D·|Batches|·|Shards| = %d: %s", len(keys), max, plan.Why)
	}

	p, _ := netbench.ByName("IPv4")
	ipv4, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err = repro.Partition(ipv4, repro.WithStages(4))
	if err != nil {
		t.Fatal(err)
	}
	m, err = pipe.Serve(context.Background(), repro.RepeatSource(p.Traffic(256), 100_000),
		repro.WithWorld(netbench.NewWorld(nil)), repro.WithAutotune(repro.Autotune{}))
	if err != nil {
		t.Fatal(err)
	}
	if plan := pipe.Plan(); m.Packets != 100_000 || !plan.Calibrated || plan.Degree != 4 || !strings.HasPrefix(plan.Why, "chose ") {
		t.Errorf("Autotune{} on the D=4 IPv4 cut served %d packets and left %+v", m.Packets, plan)
	}
}
