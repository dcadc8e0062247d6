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
// source is delivered, shed, or quarantined — and the packets that survive
// still produce a trace byte-identical to the sequential oracle. The seam
// (Config.Faults) only stalls and panics, so every loss goes through a
// mechanism a production run can hit: a panic quarantines, a stall saturates
// a ring into shed — or, saturating nothing, loses nothing.
//
// Determinism discipline: quarantining faults (panics) are keyed on
// iteration indices, so their outcomes are exact at any interleaving.
// Overload faults are made exact with a gate — a stalled consumer that
// provably consumes nothing until the producer has finished shedding — plus
// a head paced on the run's own counters, so ring occupancy is a function of
// the schedule, not the scheduler or the clock.

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
// contributes every stage's segment, a shed or quarantined one nothing. This is only sound for stateless
// stages (IPv4 has no persistent arrays or queues), where dropping an
// iteration cannot perturb later ones.
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
// given its own fault records: shed and quarantined iterations contribute
// nothing, everything else its full segments.
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
// the source is delivered, shed, or quarantined.
func checkAccounting(t *testing.T, m *runtime.Metrics) {
	t.Helper()
	rep := m.Faults
	if rep == nil {
		t.Fatal("metrics carry no fault report")
	}
	pulled := m.Stages[0].In
	if got := rep.Accounted(); got != pulled {
		t.Errorf("accounted %d packets (delivered %d, shed %d, quarantined %d), source supplied %d",
			got, rep.Delivered, rep.Shed, rep.Quarantined, pulled)
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
// stage delays its ring puts and backs up the ring into it — but under the
// blocking policy they never lose packets: the trace stays
// byte-identical to the clean oracle and every fault counter stays zero.
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
	if rep.Shed+rep.Quarantined != 0 {
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

// TestChaosSaturatedRingSheds saturates the ring between stages 2 and 3 and
// asserts an exact shed count. Stage 3 is gated on iteration 0 until the
// pipeline has shed 17 packets, so it provably consumes nothing while the
// ring is saturated: it holds packet 0, the ring holds 1 and 2, and stage 2
// must shed exactly packets 3..19 — at which point the gate opens and the
// backlog drains. The schedule is paced by what the run is observed to have
// done, not by the clock: the source hands out packet 1 once stage 3 has taken packet 0 off the ring,
// and each later packet once stage 2 has forwarded or shed every packet
// before it — so the ring into stage 2 never holds more than one entry and
// stage 1 cannot be the one that sheds, however long stage 2 spends on its
// watermark ticks. Stage 3 is the sink, so the three packets the gate
// releases together have no ring ahead of them.
func TestChaosSaturatedRingSheds(t *testing.T) {
	const n = 20
	_, stages := partitionIPv4(t, 3)
	traffic := ipv4Traffic(n)
	segs := stageSegments(t, stages, traffic)
	var live *runtime.Live
	next := 0
	src := runtime.SourceFunc(func() ([]byte, bool) {
		if next == n {
			return nil, false
		}
		for ready := false; !ready; time.Sleep(50 * time.Microsecond) {
			switch snap := live.Snapshot(); next {
			case 0:
				ready = true
			case 1:
				ready = snap.Stages[2].In >= 1
			default:
				ready = snap.Stages[1].Out+snap.Stages[1].Shed >= int64(next)
			}
		}
		next++
		return traffic[next-1], true
	})
	cfg := runtime.Config{
		RingCapacity: 2,
		Batch:        1,
		Overload:     runtime.OverloadShed,
		Faults: &fault.Plan{Injections: []fault.Injection{
			{Kind: fault.Stall, Stage: 3, At: 0, UntilOverload: n - 3},
		}},
		OnLive: func(l *runtime.Live) { live = l },
	}
	m, err := runtime.Serve(context.Background(), stages, netbench.NewWorld(nil), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Faults
	if rep.Shed != n-3 || rep.Delivered != 3 || rep.Quarantined != 0 {
		t.Fatalf("shed %d delivered %d quarantined %d, want %d, 3, 0\n%s",
			rep.Shed, rep.Delivered, rep.Quarantined, n-3, rep)
	}
	for i, rec := range rep.Records {
		if rec.Iter != int64(3+i) || rec.Stage != 2 || rec.Disposition != "shed" {
			t.Fatalf("record %d: %+v, want iteration %d shed at stage 2", i, rec, 3+i)
		}
	}
	if diff := interp.TraceEqual(expectedTrace(segs, rep), m.Trace); diff != "" {
		t.Fatalf("delivered packets diverge from oracle: %s", diff)
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
// Delivered + Shed + Quarantined equals the dispatcher's pull count.
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

// shedOracle is the oracle of a run that shed at its scatters: the stage
// programs run sequentially, iteration by iteration, a shed iteration only
// through the ran[iter] stages it had passed when it was dropped — their
// persistent state keeps what it did there — and its events discarded. Every
// cross-flow stage of the served run saw exactly these packets in exactly
// this order, so the trace must match whatever state the stages carry.
func shedOracle(t *testing.T, stages []*ir.Program, traffic [][]byte, ran map[int64]int) []interp.Event {
	t.Helper()
	runners := interp.NewStageRunners(stages, netbench.NewWorld(nil))
	for _, r := range runners {
		r.RxFromCtx = true
	}
	ctx := interp.NewIterCtx()
	var want []interp.Event
	for i, p := range traffic {
		ctx.DeferEvents = true
		ctx.Pending, ctx.HasPending = p, true
		upTo, shed := ran[int64(i)]
		if !shed {
			upTo = len(runners)
		}
		var slots []int64
		for k, r := range runners[:upTo] {
			out, err := r.RunIteration(ctx, slots)
			if err != nil {
				t.Fatalf("oracle iteration %d stage %d: %v", i, k+1, err)
			}
			slots = out
		}
		if !shed {
			want = append(want, ctx.Events...)
		}
		ctx.Reset()
	}
	return want
}

// TestServeShardedShedsAtDispatch: the shed policy under sharding. The last
// stage stalls on its first packet until the pipeline has shed a quota; every
// ring of a sharded segment blocks, so the saturation backs up to where the
// segment's lane sequence is recorded — the dispatcher, or the scatter out of
// an unreplicated stage — and the drop happens there, before the packet has a
// place in the merge order. The serve must terminate (no merge waits on a
// token that was dropped), the ledger must balance, every loss must be a shed
// at a recording point, and the delivered trace must be the oracle's without
// the shed iterations: IPv4 [P P] into the sink's fan-in, and QM [P 1 P 1],
// whose queues and counters see exactly the surviving stream.
func TestServeShardedShedsAtDispatch(t *testing.T) {
	for _, tc := range []struct {
		app     string
		d, p    int
		reps    []int
		scatter map[int]int // recording points: record stage -> stages the packet had run
	}{
		{app: "IPv4", d: 2, p: 2, reps: []int{2, 2}, scatter: map[int]int{1: 0}},
		{app: "QM", d: 4, p: 4, reps: []int{4, 1, 4, 1}, scatter: map[int]int{1: 0, 2: 2}},
	} {
		t.Run(fmt.Sprintf("%s/D=%d/P=%d", tc.app, tc.d, tc.p), func(t *testing.T) {
			const n, quota = 400, 40
			pps, _ := netbench.ByName(tc.app)
			prog, err := pps.Compile()
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Partition(prog, core.Options{Stages: tc.d})
			if err != nil {
				t.Fatal(err)
			}
			traffic := pps.Traffic(n)
			l, err := runtime.NewLayout(res.Stages, runtime.Config{
				Shards: tc.p, Batch: 2, RingCapacity: 2,
				Overload: runtime.OverloadShed,
				Faults: &fault.Plan{Injections: []fault.Injection{
					{Kind: fault.Stall, Stage: tc.d, At: 0, UntilOverload: quota},
				}},
			})
			if err != nil {
				t.Fatalf("shed with sharding refused: %v", err)
			}
			if got := l.Replicas(); !slices.Equal(got, tc.reps) {
				t.Fatalf("replica widths %v, want %v", got, tc.reps)
			}
			m, err := l.Serve(context.Background(), netbench.NewWorld(nil), runtime.Packets(traffic))
			if err != nil {
				t.Fatal(err)
			}
			rep := m.Faults
			if rep.Shed < quota || rep.Quarantined != 0 || m.Stages[0].In != n || int64(len(rep.Records)) != rep.Shed {
				t.Fatalf("pulled %d, shed %d (quota %d), quarantined %d, %d records",
					m.Stages[0].In, rep.Shed, quota, rep.Quarantined, len(rep.Records))
			}
			ran := map[int64]int{}
			for _, rec := range rep.Records {
				stagesRun, ok := tc.scatter[rec.Stage]
				if !ok || rec.Disposition != "shed" || !strings.Contains(rec.Reason, "lane saturated") {
					t.Fatalf("loss away from a recording point: %+v", rec)
				}
				ran[rec.Iter] = stagesRun
			}
			if diff := interp.TraceEqual(shedOracle(t, res.Stages, traffic, ran), m.Trace); diff != "" {
				t.Fatalf("delivered trace is not the oracle's minus the shed iterations: %s", diff)
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
// segment that ends in a fan-in. The merger consumes lanes in dispatch
// order, so the quarantined token cannot just vanish: it travels on as a
// tombstone and is recycled at the merger. The serve must terminate with the
// ledger balanced, and — the panic fired before any stage touched the
// counter — the trace must be the sequential program's over the traffic
// minus that one packet.
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
// random fault plans across both policies must terminate, never error, and
// account for 100% of the packets the source supplied.
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
		if seed%2 == 1 {
			cfg.Overload = runtime.OverloadShed
		}
		m, err := runtime.Serve(context.Background(), stages, netbench.NewWorld(nil),
			runtime.Packets(traffic), cfg)
		if err != nil {
			t.Fatalf("seed %d (%v): %v", seed, cfg.Overload, err)
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
