package repro_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro"
)

// planSrc is a PPS with enough heterogeneous work (table lookups, header
// arithmetic, a counter) that cutting it at another degree has real choices
// to make.
const planSrc = `pps Adapt {
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

// TestPlanStatic: before any serve, Plan reflects the static cut.
func TestPlanStatic(t *testing.T) {
	prog := repro.MustCompile(planSrc)
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

// junctionSrc is planSrc with its counter made persistent: the stage that
// holds it is cross-flow and stays unreplicated, the stages before it are
// stateless and shard, so a sharded D=3 cut runs at widths [P P 1] — one
// aligned cut and one fan-in junction.
var junctionSrc = strings.Replace(strings.Replace(planSrc, "Adapt", "Junction", 1),
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
		{"fused", junctionSrc, []repro.Option{repro.WithStages(3)}, "[1 1 1]", "[1]"},
		{"sharded junction", junctionSrc, []repro.Option{repro.WithStages(3), repro.WithShards(2)}, "[2 2 1]", "[1]"},
		{"nothing replicates", crossSrc, []repro.Option{repro.WithStages(2), repro.WithShards(4)}, "[1 1]", "[]"},
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
// served. The stateless D=4 cut fuses whole and is served as one
// re-realized program, so the price is that program's own path cost — the
// D=1 partition's — which undercuts the sum of the four stages (each pays
// for transmissions the unit does not make).
func TestPlanPredictedNsPerPkt(t *testing.T) {
	setCores(t, 1)
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
	if plan.PredictedNsPerPkt >= float64(sum) {
		t.Errorf("served price %v, member sum %d: want the served price below the sum", plan.PredictedNsPerPkt, sum)
	}
}

// TestSameUnitSamePrice: a D-stage cut fully fused and a one-stage pipeline
// are the same program, so Plan must price them equally (and below the
// ringed realization, which pays for its transmissions and its handoffs).
func TestSameUnitSamePrice(t *testing.T) {
	setCores(t, 1)
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
