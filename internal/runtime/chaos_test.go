package runtime_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
	"repro/internal/ppc"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
)

// The chaos suite drives the serve runtime through deterministic fault
// schedules and asserts exact loss accounting: every packet pulled from the
// source is delivered or quarantined — and the packets that survive still
// produce a trace byte-identical to the sequential oracle. The seam
// (Config.Faults) only stalls and panics, so every loss goes through a
// mechanism a production run can hit: a panic quarantines; a stall saturates
// rings, which block, and loses nothing.
//
// Determinism discipline: quarantining faults (panics) are keyed on
// iteration indices, so their outcomes are exact at any interleaving.

// partitionIPv4 compiles the IPv4 benchmark and partitions it at degree d.
func partitionIPv4(t *testing.T, d int) (*ir.Program, []*ir.Program) {
	t.Helper()
	pps, ok := netbench.ByName("IPv4")
	if !ok {
		t.Fatal("IPv4 benchmark missing")
	}
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: d})
	if err != nil {
		t.Fatal(err)
	}
	return prog, res.Stages
}

func ipv4Traffic(n int) [][]byte {
	pps, _ := netbench.ByName("IPv4")
	return pps.Traffic(n)
}

// stageSegments runs the pipeline sequentially (the oracle) and records the
// events each (iteration, stage) pair produces. The expected trace of any
// faulted run is assembled from these segments: a delivered packet
// contributes every stage's segment, a quarantined one nothing. This is only
// sound for stateless stages (IPv4 has no persistent arrays or queues),
// where dropping an iteration cannot perturb later ones.
func stageSegments(t *testing.T, stages []*ir.Program, traffic [][]byte) [][][]interp.Event {
	t.Helper()
	runners := interp.NewStageRunners(stages, netbench.NewWorld(nil))
	for _, r := range runners {
		r.RxFromCtx = true
	}
	ctx := interp.NewIterCtx()
	segs := make([][][]interp.Event, len(traffic))
	for i, p := range traffic {
		ctx.DeferEvents = true
		ctx.Pending, ctx.HasPending = p, true
		segs[i] = make([][]interp.Event, len(stages))
		var slots []int64
		for k, r := range runners {
			mark := len(ctx.Events)
			out, err := r.RunIteration(ctx, slots)
			if err != nil {
				t.Fatalf("oracle iteration %d stage %d: %v", i, k+1, err)
			}
			slots = out
			segs[i][k] = append([]interp.Event(nil), ctx.Events[mark:]...)
		}
		ctx.Reset()
	}
	return segs
}

// expectedTrace assembles the oracle trace a faulted run should produce,
// given its own fault records: quarantined iterations contribute nothing,
// everything else its full segments.
func expectedTrace(segs [][][]interp.Event, rep *runtime.FaultReport) []interp.Event {
	drop := map[int64]bool{}
	for _, r := range rep.Records {
		drop[r.Iter] = true
	}
	var want []interp.Event
	for i := range segs {
		if drop[int64(i)] {
			continue
		}
		for _, seg := range segs[i] {
			want = append(want, seg...)
		}
	}
	return want
}

// checkAccounting asserts the report invariant: every packet pulled from
// the source is delivered or quarantined.
func checkAccounting(t *testing.T, m *runtime.Metrics) {
	t.Helper()
	rep := m.Faults
	if rep == nil {
		t.Fatal("metrics carry no fault report")
	}
	pulled := m.Stages[0].In
	if got := rep.Accounted(); got != pulled {
		t.Errorf("accounted %d packets (delivered %d, quarantined %d), source supplied %d",
			got, rep.Delivered, rep.Quarantined, pulled)
	}
	if rep.Delivered != m.Packets {
		t.Errorf("report says %d delivered, sink retired %d", rep.Delivered, m.Packets)
	}
}

func chaosServe(t *testing.T, stages []*ir.Program, traffic [][]byte, cfg runtime.Config) *runtime.Metrics {
	t.Helper()
	m, err := runtime.Serve(context.Background(), stages, netbench.NewWorld(nil), runtime.Packets(traffic), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestChaosStallsAndDelaysAreLossless: stalls slow the pipeline — a stalled
// stage delays its ring puts and backs up the ring into it — but they never
// lose packets: the trace stays byte-identical to the clean oracle and
// every fault counter stays zero.
func TestChaosStallsAndDelaysAreLossless(t *testing.T) {
	const n = 32
	prog, stages := partitionIPv4(t, 4)
	traffic := ipv4Traffic(n)
	seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runtime.Config{}
	cfg.Faults = &fault.Plan{Injections: []fault.Injection{
		{Kind: fault.Stall, Stage: 1, Every: 8, Count: 2, Sleep: time.Millisecond},
		{Kind: fault.Stall, Stage: 3, At: 11, Sleep: 2 * time.Millisecond},
		{Kind: fault.Stall, Stage: 2, At: 5, Sleep: time.Millisecond},
	}}
	m := chaosServe(t, stages, traffic, cfg)
	if m.Packets != n {
		t.Fatalf("served %d packets, want %d", m.Packets, n)
	}
	if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatalf("trace diverges under stalls: %s", diff)
	}
	rep := m.Faults
	if rep.Quarantined != 0 || len(rep.Records) != 0 {
		t.Fatalf("lossless schedule lost packets: %s", rep)
	}
	checkAccounting(t, m)
}

// TestChaosPanicOncePerStage: one injected panic in every stage body; each
// quarantines exactly its own packet and the pipeline keeps serving.
func TestChaosPanicOncePerStage(t *testing.T) {
	const n, d = 16, 4
	_, stages := partitionIPv4(t, d)
	traffic := ipv4Traffic(n)
	segs := stageSegments(t, stages, traffic)
	cfg := runtime.Config{}
	plan := &fault.Plan{}
	for s := 1; s <= d; s++ {
		plan.Injections = append(plan.Injections,
			fault.Injection{Kind: fault.Panic, Stage: s, At: int64(2 + 3*(s-1))})
	}
	cfg.Faults = plan
	m := chaosServe(t, stages, traffic, cfg)
	rep := m.Faults
	if rep.Quarantined != d || rep.Delivered != n-d {
		t.Fatalf("quarantined %d delivered %d, want %d and %d\n%s",
			rep.Quarantined, rep.Delivered, d, n-d, rep)
	}
	for i, rec := range rep.Records {
		s := i + 1
		if rec.Stage != s || rec.Iter != int64(2+3*(s-1)) ||
			!strings.Contains(rec.Reason, "injected panic") {
			t.Fatalf("record %d: %+v, want injected panic at stage %d", i, rec, s)
		}
	}
	if diff := interp.TraceEqual(expectedTrace(segs, rep), m.Trace); diff != "" {
		t.Fatalf("surviving packets diverge from oracle: %s", diff)
	}
	checkAccounting(t, m)
}

// TestChaosShardedLedgerBalances drives a sharded serve (P=4 over the
// stateless IPv4 pipeline, so every stage runs replicated) through a
// deterministic fault schedule and asserts the ledger still balances when
// the counters are aggregated across shards: a panic cadence at stage 1
// quarantines every k-th packet on whichever replica it was dispatched to,
// a one-off panic quarantines on exactly one replica, a long stall on one
// replica holds its packet without losing it — the merge waits for it — and
// Delivered + Quarantined equals the dispatcher's pull count.
func TestChaosShardedLedgerBalances(t *testing.T) {
	const n, k = 24, 6
	_, stages := partitionIPv4(t, 4)
	traffic := ipv4Traffic(n)
	segs := stageSegments(t, stages, traffic)
	cfg := runtime.Config{}
	cfg.Shards = 4
	cfg.Faults = &fault.Plan{Injections: []fault.Injection{
		{Kind: fault.Panic, Stage: 1, Every: k},
		{Kind: fault.Panic, Stage: 2, At: 3},
		{Kind: fault.Stall, Stage: 3, At: 10, Sleep: 300 * time.Millisecond},
	}}
	m := chaosServe(t, stages, traffic, cfg)
	if m.Shards != 4 {
		t.Fatalf("ran at width %d, want 4", m.Shards)
	}
	rep := m.Faults
	wantQ := int64(n/k + 1)
	if rep.Quarantined != wantQ || rep.Delivered != n-wantQ || int64(len(rep.Records)) != wantQ {
		t.Fatalf("quarantined %d delivered %d, want %d and %d\n%s",
			rep.Quarantined, rep.Delivered, wantQ, n-wantQ, rep)
	}
	for _, rec := range rep.Records {
		var stage int
		switch {
		case (rec.Iter+1)%k == 0:
			stage = 1
		case rec.Iter == 3:
			stage = 2
		}
		if rec.Stage != stage || rec.Disposition != "quarantined" || !strings.Contains(rec.Reason, "injected panic") {
			t.Fatalf("unexpected record: %+v", rec)
		}
	}
	if diff := interp.TraceEqual(expectedTrace(segs, rep), m.Trace); diff != "" {
		t.Fatalf("surviving packets diverge from oracle: %s", diff)
	}
	checkAccounting(t, m)
}

// TestServeShardedStallBlocksAtDispatch: a stall behind sharded segments is
// lossless. The last stage stalls on its first packet; every ring of a
// sharded segment fills, so the saturation backs up to where the segment's
// lane sequence is recorded — the dispatcher, or the scatter out of an
// unreplicated stage — and the scatter waits there on its saturated lane,
// offering the others their batches each round. The serve must terminate
// with every packet delivered, no fault recorded, and the trace the
// oracle's: IPv4 [P P] into the sink's fan-in, and QM [P 1 P 1], whose
// queues and counters see the whole stream in order.
func TestServeShardedStallBlocksAtDispatch(t *testing.T) {
	for _, tc := range []struct {
		app  string
		d, p int
		reps []int
	}{
		{app: "IPv4", d: 2, p: 2, reps: []int{2, 2}},
		{app: "QM", d: 4, p: 4, reps: []int{4, 1, 4, 1}},
	} {
		t.Run(fmt.Sprintf("%s/D=%d/P=%d", tc.app, tc.d, tc.p), func(t *testing.T) {
			const n = 400
			pps, _ := netbench.ByName(tc.app)
			prog, err := pps.Compile()
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Partition(prog.Clone(), core.Options{Stages: tc.d})
			if err != nil {
				t.Fatal(err)
			}
			traffic := pps.Traffic(n)
			want, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
			if err != nil {
				t.Fatal(err)
			}
			l, err := runtime.NewLayout(res.Stages, runtime.Config{
				Shards: tc.p, Batch: 2, RingCapacity: 2,
				Faults: &fault.Plan{Injections: []fault.Injection{
					{Kind: fault.Stall, Stage: tc.d, At: 0, Sleep: 20 * time.Millisecond},
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := l.Replicas(); !slices.Equal(got, tc.reps) {
				t.Fatalf("replica widths %v, want %v", got, tc.reps)
			}
			m, err := l.Serve(context.Background(), netbench.NewWorld(nil), runtime.Packets(traffic))
			if err != nil {
				t.Fatal(err)
			}
			rep := m.Faults
			if rep.Delivered != n || rep.Quarantined != 0 || len(rep.Records) != 0 || m.Stages[0].In != n {
				t.Fatalf("pulled %d, delivered %d, quarantined %d, %d records",
					m.Stages[0].In, rep.Delivered, rep.Quarantined, len(rep.Records))
			}
			if m.Stages[0].Stalls == 0 {
				t.Error("the dispatch never waited on a full lane")
			}
			if diff := interp.TraceEqual(want, m.Trace); diff != "" {
				t.Fatalf("trace diverges from the oracle: %s", diff)
			}
			checkAccounting(t, m)
		})
	}
}

// junctionSrc keeps a persistent counter behind stateless header work: at
// D=3 the stage that holds the counter is cross-flow and stays unreplicated,
// the two before it shard, so a sharded serve runs at widths [P P 1] — an
// aligned cut and then a fan-in.
const junctionSrc = `pps Junction {
	persistent var total[1];
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

// TestChaosTombstoneThroughFanin quarantines a packet inside a sharded
// segment that ends in a fan-in. The fan-in reads the lanes in the turn the
// batches were dealt, so the batch that lost the packet must still arrive —
// shorter, or empty — for the rotation to stay in step. The serve must
// terminate with the ledger balanced, and — the panic fired before any stage
// touched the counter — the trace must be the sequential program's over the
// traffic minus that one packet.
func TestChaosTombstoneThroughFanin(t *testing.T) {
	const n, at = 40, 13
	prog, err := ppc.Compile(junctionSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog.Clone(), core.Options{Stages: 3})
	if err != nil {
		t.Fatal(err)
	}
	traffic := ipv4Traffic(n)
	want, err := interp.RunSequential(prog, netbench.NewWorld(slices.Delete(slices.Clone(traffic), at, at+1)), n-1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4} {
		for _, batch := range []int{1, 8} {
			for _, stage := range []int{1, 2} {
				t.Run(fmt.Sprintf("P=%d/batch=%d/stage=%d", p, batch, stage), func(t *testing.T) {
					l, err := runtime.NewLayout(res.Stages, runtime.Config{Shards: p, Batch: batch,
						Faults: &fault.Plan{Injections: []fault.Injection{{Kind: fault.Panic, Stage: stage, At: at}}}})
					if err != nil {
						t.Fatal(err)
					}
					if got := l.Replicas(); !slices.Equal(got, []int{p, p, 1}) {
						t.Fatalf("replica widths %v, want [%d %d 1]", got, p, p)
					}
					m, err := l.Serve(context.Background(), netbench.NewWorld(nil), runtime.Packets(traffic))
					if err != nil {
						t.Fatal(err)
					}
					rep := m.Faults
					if rep.Quarantined != 1 || rep.Delivered != n-1 || m.Stages[0].In != n || len(rep.Records) != 1 {
						t.Fatalf("pulled %d, quarantined %d, delivered %d, want %d, 1, %d\n%s",
							m.Stages[0].In, rep.Quarantined, rep.Delivered, n, n-1, rep)
					}
					if rec := rep.Records[0]; rec.Iter != at || rec.Stage != stage ||
						rec.Disposition != "quarantined" || !strings.Contains(rec.Reason, "injected panic") {
						t.Fatalf("unexpected record: %+v", rec)
					}
					if in := m.Stages[2].In; in != n-1 {
						t.Errorf("the fan-in handed stage 3 %d tokens, want the %d live ones", in, n-1)
					}
					if diff := interp.TraceEqual(want, m.Trace); diff != "" {
						t.Fatalf("trace diverges from the oracle over the surviving packets: %s", diff)
					}
					checkAccounting(t, m)
				})
			}
		}
	}
}

// seededPlan derives a small random plan for a pipeline of the given degree —
// the randomized half of the chaos harness. The plan is a pure function of
// the seed: a few stalls with sub-2ms holds, some on a cadence, and some
// panics, all within the first horizon iterations.
func seededPlan(seed int64, stages int, horizon int64) *fault.Plan {
	rng := rand.New(rand.NewSource(seed))
	p := &fault.Plan{}
	n := 1 + rng.Intn(2*stages)
	for i := 0; i < n; i++ {
		in := fault.Injection{
			Kind:  fault.Kind(rng.Intn(int(fault.Panic) + 1)),
			Stage: 1 + rng.Intn(stages),
			At:    rng.Int63n(horizon),
		}
		if in.Kind == fault.Stall {
			in.Sleep = time.Duration(rng.Intn(2000)) * time.Microsecond
			if rng.Intn(2) == 0 {
				in.Every = 1 + rng.Int63n(horizon/2+1)
				in.Count = 1 + rng.Int63n(4)
			}
		}
		p.Injections = append(p.Injections, in)
	}
	return p
}

// TestChaosSeededPlansAccount is the randomized half of the harness: seeded
// random fault plans must terminate, never error, and account for 100% of
// the packets the source supplied.
func TestChaosSeededPlansAccount(t *testing.T) {
	const n = 40
	_, stages := partitionIPv4(t, 4)
	traffic := ipv4Traffic(n)
	for seed := int64(0); seed < 18; seed++ {
		cfg := runtime.Config{
			RingCapacity: 2,
			Batch:        1,
			Faults:       seededPlan(seed, 4, n),
		}
		m, err := runtime.Serve(context.Background(), stages, netbench.NewWorld(nil),
			runtime.Packets(traffic), cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m.Stages[0].In != n {
			t.Fatalf("seed %d: head pulled %d packets, want %d", seed, m.Stages[0].In, n)
		}
		checkAccounting(t, m)
	}
}

// TestChaosFusedStageAttribution: fault attribution keeps the cut's stage
// numbers when cuts are un-made. A coarsened layout serves stages 2, 3 and 4
// as one program behind stage 1's ring; a panic keyed to stage 2 — where that
// program begins — must quarantine exactly its packet under stage 2, a stall
// there delays its packet without losing it, an injection keyed to stage 3
// has no seam to fire at, the per-stage report stays four entries long with
// stages 3 and 4 naming the stage they run inside, and the ledger balances to
// the packet.
// (Through the facade a fault plan keeps every cut, so an injection never
// meets a folded stage there: repro's TestServeWithFaultsKeepsEveryCut.)
func TestChaosFusedStageAttribution(t *testing.T) {
	const n = 24
	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 4})
	if err != nil {
		t.Fatal(err)
	}
	traffic := ipv4Traffic(n)
	segs := stageSegments(t, res.Stages, traffic)
	t.Run("unit_head", func(t *testing.T) {
		cfg := runtime.Config{}
		cfg.Faults = &fault.Plan{Injections: []fault.Injection{
			{Kind: fault.Panic, Stage: 2, At: 4},
			{Kind: fault.Stall, Stage: 2, At: 9, Sleep: 20 * time.Millisecond},
			{Kind: fault.Panic, Stage: 3, At: 12}, // folded into stage 2's program
		}}
		l, err := runtime.CoarseLayout(res, 0b110, true, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := l.Serve(context.Background(), netbench.NewWorld(nil), runtime.Packets(traffic))
		if err != nil {
			t.Fatal(err)
		}
		rep := m.Faults
		if rep.Quarantined != 1 || rep.Delivered != n-1 || len(rep.Records) != 1 {
			t.Fatalf("quarantined %d delivered %d, want 1 and %d\n%s", rep.Quarantined, rep.Delivered, n-1, rep)
		}
		if rec := rep.Records[0]; rec.Iter != 4 || rec.Stage != 2 || rec.Disposition != "quarantined" {
			t.Fatalf("coarsened unit misattributed the fault: %+v", rec)
		}
		if len(m.Stages) != 4 {
			t.Fatalf("%d stage entries, want the cut's 4", len(m.Stages))
		}
		for k, want := range []int{0, 0, 2, 2} {
			st := m.Stages[k]
			if st.Stage != k+1 || st.FusedInto != want || (want > 0 && (st.In != 0 || st.Busy != 0)) {
				t.Errorf("stage entry %d: %+v, want FusedInto %d", k+1, st, want)
			}
		}
		if st := m.Stages[1]; st.In != n || st.Out != n-1 || st.Quarantined != 1 {
			t.Errorf("stage 2 booked in %d out %d quarantined %d, want %d, %d, 1", st.In, st.Out, st.Quarantined, n, n-1)
		}
		if diff := interp.TraceEqual(expectedTrace(segs, rep), m.Trace); diff != "" {
			t.Fatalf("surviving packets diverge from oracle: %s", diff)
		}
		checkAccounting(t, m)
	})
}
