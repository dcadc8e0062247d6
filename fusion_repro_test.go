package repro_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/netbench"
	"repro/internal/runtime/fault"
)

// TestWithFusionValidates: an unknown fusion mode fails fast with the
// typed sentinel, from Partition and from the per-call Serve layer alike.
func TestWithFusionValidates(t *testing.T) {
	prog, err := repro.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.Partition(prog, repro.WithFusion(repro.FusionMode(9))); !errors.Is(err, repro.ErrBadOption) {
		t.Errorf("Partition err = %v, want ErrBadOption", err)
	}
	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Serve(context.Background(), repro.PacketSource(testPackets(4)),
		repro.WithFusion(repro.FusionMode(-1))); !errors.Is(err, repro.ErrBadOption) {
		t.Errorf("Serve err = %v, want ErrBadOption", err)
	}
}

// TestServeFusionOffMatchesAuto: the fused realization (FusionAuto fuses
// every cut of a program that keeps no state) and the fully ringed one
// (FusionOff) must both serve a trace byte-identical to the sequential
// oracle, and the published Plan must tell them apart.
func TestServeFusionOffMatchesAuto(t *testing.T) {
	prog, err := repro.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	packets := testPackets(n)
	seq := seqTrace(t, prog, packets, n)
	pipe, err := repro.Partition(prog, repro.WithStages(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		opts      []repro.Option
		wantFused int
	}{
		{"auto", nil, 2},
		{"off", []repro.Option{repro.WithFusion(repro.FusionOff)}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := pipe.Serve(context.Background(), repro.PacketSource(packets), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
				t.Fatalf("trace diverges from oracle: %s", diff)
			}
			plan := pipe.Plan()
			if len(plan.FusedCuts) != tc.wantFused {
				t.Errorf("Plan.FusedCuts = %v, want %d fused cuts", plan.FusedCuts, tc.wantFused)
			}
			if tc.wantFused > 0 && len(plan.FusionWhy) == 0 {
				t.Error("fused plan carries no rationale")
			}
		})
	}
}

// TestServeEveryFuseMaskMatchesOracle is the realization-independence
// matrix at the facade: every benchmark PPS × D=1..5 × every fuse mask × P ∈ {1, 2, 4},
// each point served through Pipeline.Serve with the mask given explicitly
// (WithFuseMaskForTest), so realize grants it where
// replica widths align, coarsens the cut and lays the units out — and
// compared byte for byte with the interpreter on the unpartitioned program.
// One Pipeline per depth serves every mask and width, so the shape cache is
// exercised too; the depths run in parallel, each on its own Pipeline.
// Beyond the trace each point checks that the Plan and the Metrics agree on
// the served shape: a granted cut is in FusedCuts, the stage behind it is
// reported as fused into the unit's first stage with no counters of its own,
// and every served stage saw every packet.
func TestServeEveryFuseMaskMatchesOracle(t *testing.T) {
	const n = 48
	for _, pps := range append(netbench.IPv4Forwarding(), netbench.IPForwarding()...) {
		prog, err := pps.Compile()
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		an, err := repro.Analyze(prog)
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		traffic := pps.Traffic(n)
		seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
		if err != nil {
			t.Fatalf("%s: sequential: %v", pps.Name, err)
		}
		for d := 1; d <= 5; d++ {
			t.Run(fmt.Sprintf("%s/D=%d", pps.Name, d), func(t *testing.T) {
				t.Parallel()
				pipe, err := an.Partition(repro.WithStages(d), repro.WithBatch(4), repro.WithShardKey(repro.FlowKey))
				if err != nil {
					t.Fatal(err)
				}
				for mask := uint64(0); mask < 1<<(d-1); mask++ {
					for _, shards := range []int{1, 2, 4} {
						checkServedMask(t, pipe, mask, shards, traffic, seq)
					}
				}
			})
		}
	}
}

// checkServedMask serves traffic through pipe with exactly the cuts in mask
// un-made, on shards lanes, and checks the trace against seq and the Plan
// against the Metrics (TestServeEveryFuseMaskMatchesOracle).
func checkServedMask(t *testing.T, pipe *repro.Pipeline, mask uint64, shards int, traffic [][]byte, seq []repro.Event) {
	d, n := pipe.Degree(), int64(len(traffic))
	name := fmt.Sprintf("fuse=%0*b/P=%d", d-1, mask, shards)
	m, err := pipe.Serve(context.Background(), repro.PacketSource(traffic),
		repro.WithShards(shards), repro.WithWorld(netbench.NewWorld(nil)), repro.WithFuseMaskForTest(mask))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
		t.Errorf("%s: trace diverges from oracle: %s", name, diff)
	}
	plan := pipe.Plan()
	if m.Packets != n || len(m.Stages) != d || len(plan.Replicas) != d {
		t.Fatalf("%s: %d packets over %d stage entries, plan replicas %v", name, m.Packets, len(m.Stages), plan.Replicas)
	}
	fused := map[int]bool{}
	for _, k := range plan.FusedCuts {
		fused[k] = true
	}
	first := 1 // the first stage of the unit the walk is in
	for k := 1; k <= d; k++ {
		st := m.Stages[k-1]
		if k > 1 {
			asked := mask>>(k-2)&1 == 1
			if want := asked && plan.Replicas[k-2] == plan.Replicas[k-1]; fused[k-1] != want {
				t.Errorf("%s: cut %d fused = %v, asked %v at widths %v", name, k-1, fused[k-1], asked, plan.Replicas)
			}
			if !fused[k-1] {
				first = k
			}
		}
		switch {
		case st.Stage != k || st.Replicas != plan.Replicas[k-1]:
			t.Errorf("%s: stage entry %d: %+v, plan replicas %v", name, k, st, plan.Replicas)
		case first < k && (st.FusedInto != first || st.In != 0 || st.Busy != 0):
			t.Errorf("%s: stage %d should be folded into %d: %+v", name, k, first, st)
		case first == k && (st.FusedInto != 0 || st.In != n || st.Out != n):
			t.Errorf("%s: served stage %d: in=%d out=%d fused into %d, want %d, %d, 0", name, k, st.In, st.Out, st.FusedInto, n, n)
		}
	}
}

// TestServeShardedJunctionsCarryLiveSets serves the two PPS whose cross-flow
// stages stay unsharded, QM and Scheduler, at D=4 with every cut ringed on
// two lanes, at batches of 33 and 64: between the two, a scatter opens a
// sharded segment and a fan-in closes one with a live set crossing each, in
// batches that span two 32-lane exec groups. The pipelines are built as
// TestServeEveryFuseMaskMatchesOracle builds its own, and each point is held
// to the interpreter on the unpartitioned program by checkServedMask.
func TestServeShardedJunctionsCarryLiveSets(t *testing.T) {
	const n, d = 3*64 + 7, 4
	scatter, merge := false, false // a junction between two stages, across the test
	for _, name := range []string{"QM", "Scheduler"} {
		pps, ok := netbench.ByName(name)
		if !ok {
			t.Fatalf("%s benchmark missing", name)
		}
		prog, err := pps.Compile()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		an, err := repro.Analyze(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		traffic := pps.Traffic(n)
		seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		for _, batch := range []int{33, 64} {
			t.Run(fmt.Sprintf("%s/batch=%d", name, batch), func(t *testing.T) {
				pipe, err := an.Partition(repro.WithStages(d), repro.WithBatch(batch), repro.WithShardKey(repro.FlowKey))
				if err != nil {
					t.Fatal(err)
				}
				checkServedMask(t, pipe, 0, 2, traffic, seq)
				reps := pipe.Plan().Replicas
				if !slices.ContainsFunc(reps, func(r int) bool { return r != reps[0] }) {
					t.Fatalf("replica widths %v: no junction between two stages", reps)
				}
				for k := 1; k < len(reps); k++ {
					scatter = scatter || reps[k-1] < reps[k]
					merge = merge || reps[k-1] > reps[k]
				}
			})
		}
	}
	if !scatter || !merge {
		t.Errorf("scatter between stages %v, fan-in between stages %v: want both", scatter, merge)
	}
}

// sharedTableSrc reads one persistent table, which nothing stores to, early
// and late in the loop body: the partitioner may put the two reads in
// different stages (read-only flow state may be read from any engine).
const sharedTableSrc = `pps SharedTable {
	persistent var tab[16];
	persistent var salt = 37;
	loop {
		var n = pkt_rx();
		if (n < 0) { continue; }
		var b0 = pkt_byte(0);
		var a = tab[b0 & 15] + salt;
		var h = hash_crc(b0 * 31 + a + n);
		var hop = rt_lookup(h & 0xFF);
		var c = csum_fold(h + hop);
		meta_set(0, c & 0xFFFF);
		var z = tab[c & 15] + salt;
		trace((hop + c + z) & 0xFF);
		pkt_send(hop & 1);
	}
}`

// TestServeSharedReadOnlyTable: a persistent array no stage stores to is a
// constant table, so a cut that reads it on both sides is served — ringed and
// with FusionAuto's verdict, unsharded and sharded — as the partitioner and
// Run already allow, byte-identical to the unpartitioned program.
func TestServeSharedReadOnlyTable(t *testing.T) {
	prog := repro.MustCompile(sharedTableSrc)
	const n = 256
	packets := testPackets(n)
	seq, err := interp.RunSequential(prog.Clone(), repro.NewWorld(packets), n)
	if err != nil {
		t.Fatal(err)
	}
	for d := 2; d <= 4; d++ {
		pipe, err := repro.Partition(prog, repro.WithStages(d), repro.WithBatch(4))
		if err != nil {
			t.Fatal(err)
		}
		readers := 0
		for _, st := range pipe.Stages() {
			if strings.Contains(st.Func.String(), "tab[") {
				readers++
			}
		}
		if readers < 2 {
			t.Fatalf("D=%d: the table is read in %d stage(s); the case needs a cut between its reads", d, readers)
		}
		for _, shards := range []int{1, 2} {
			for mode, name := range []string{repro.FusionAuto: "auto", repro.FusionOff: "ringed"} {
				m, err := pipe.Serve(context.Background(), repro.PacketSource(packets),
					repro.WithShards(shards), repro.WithFusion(repro.FusionMode(mode)))
				if err != nil {
					t.Fatalf("D=%d P=%d %s: %v", d, shards, name, err)
				}
				if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
					t.Errorf("D=%d P=%d %s: trace diverges from oracle: %s", d, shards, name, diff)
				}
			}
		}
	}
}

// sharedQueueSrc reads queue lengths early and late in the loop body and
// nothing puts to or gets from a queue: the read-only queue is constant
// state, so the partitioner may put the two reads in different stages.
const sharedQueueSrc = `pps SharedQueue {
	loop {
		var n = pkt_rx();
		if (n < 0) { continue; }
		var b0 = pkt_byte(0);
		var a = q_len(b0 & 3);
		var h = hash_crc(b0 * 31 + a + n);
		var hop = rt_lookup(h & 0xFF);
		var c = csum_fold(h + hop);
		meta_set(0, c & 0xFFFF);
		var z = q_len(c & 3);
		trace((hop + c + z) & 0xFF);
		pkt_send(hop & 1);
	}
}`

// TestServeSharedReadOnlyQueue: a queue no stage writes is, like a table no
// stage stores to, constant state any stage may read. A cut between its
// reads passes core.ValidateStages (inside Partition) and the serve runtime's
// Validate, and is served — ringed and fused, unsharded and sharded —
// byte-identical to the unpartitioned program.
func TestServeSharedReadOnlyQueue(t *testing.T) {
	prog := repro.MustCompile(sharedQueueSrc)
	const n = 256
	packets := testPackets(n)
	seq, err := interp.RunSequential(prog.Clone(), repro.NewWorld(packets), n)
	if err != nil {
		t.Fatal(err)
	}
	split := false
	for d := 2; d <= 4; d++ {
		pipe, err := repro.Partition(prog, repro.WithStages(d), repro.WithBatch(4))
		if err != nil {
			t.Fatal(err)
		}
		readers := 0
		for _, st := range pipe.Stages() {
			if strings.Contains(st.Func.String(), "q_len") {
				readers++
			}
		}
		split = split || readers > 1
		for _, shards := range []int{1, 2} {
			for mode, name := range []string{repro.FusionAuto: "auto", repro.FusionOff: "ringed"} {
				m, err := pipe.Serve(context.Background(), repro.PacketSource(packets),
					repro.WithShards(shards), repro.WithFusion(repro.FusionMode(mode)))
				if err != nil {
					t.Fatalf("D=%d P=%d %s: %v", d, shards, name, err)
				}
				if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
					t.Errorf("D=%d P=%d %s: trace diverges from oracle: %s", d, shards, name, diff)
				}
			}
		}
	}
	if !split {
		t.Fatal("no depth puts the queue reads in different stages; the case needs a cut between them")
	}
}

// TestFusionAutoFusesStatelessCuts: FusionAuto un-makes a cut exactly when
// neither stage beside it keeps state — taken here from exec's verdict
// (Lowered.Serial), apart from the runtime's own scan — at any shard width
// and core count, so no shard junction is ever fused (checkPlanCoherent).
// Six netbench PPS at D=2..4 and P ∈ {1, 2}, on one and two cores, each
// serve byte-identical to the oracle on a prefix. The P=2 verdicts are
// also pinned as literals, so a change to either state scan shows here.
func TestFusionAutoFusesStatelessCuts(t *testing.T) {
	const n = 64
	atP2 := map[string][3]string{ // D=2, 3, 4
		"RX":        {"[1]", "[1 2]", "[1 2 3]"},
		"IPv4":      {"[1]", "[1 2]", "[1 2 3]"},
		"Scheduler": {"[]", "[]", "[3]"},
		"QM":        {"[]", "[]", "[]"},
		"TX":        {"[1]", "[1 2]", "[1 2 3]"},
		"IP(v4)":    {"[1]", "[1 2]", "[1 2 3]"},
	}
	ip, _ := netbench.ByName("IP(v4)")
	for _, pps := range append(netbench.IPv4Forwarding(), ip) {
		prog, err := pps.Compile()
		if err != nil {
			t.Fatal(err)
		}
		traffic := pps.Traffic(n)
		seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
		if err != nil {
			t.Fatalf("%s: sequential: %v", pps.Name, err)
		}
		for d := 2; d <= 4; d++ {
			pipe, err := repro.Partition(prog, repro.WithStages(d), repro.WithBatch(32))
			if err != nil {
				t.Fatal(err)
			}
			var stateless []int // the cuts with no state-keeping stage beside them
			runners := exec.NewStageRunners(pipe.Stages(), nil)
			for k := 1; k < d; k++ {
				if !runners[k-1].Lowered().Serial && !runners[k].Lowered().Serial {
					stateless = append(stateless, k)
				}
			}
			for _, cores := range []int{1, 2} {
				for _, p := range []int{1, 2} {
					t.Run(fmt.Sprintf("%s/D=%d/P=%d/cores=%d", pps.Name, d, p, cores), func(t *testing.T) {
						setCores(t, cores)
						m, err := pipe.Serve(context.Background(), repro.PacketSource(traffic),
							repro.WithShards(p), repro.WithWorld(netbench.NewWorld(nil)))
						if err != nil {
							t.Fatal(err)
						}
						if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
							t.Fatalf("trace diverges from oracle: %s", diff)
						}
						plan := pipe.Plan()
						checkPlanCoherent(t, plan)
						got := fmt.Sprint(plan.FusedCuts)
						if want := fmt.Sprint(stateless); got != want {
							t.Errorf("FusedCuts %s, want the stateless cuts %s (%q)", got, want, plan.FusionWhy)
						}
						if want := atP2[pps.Name][d-2]; p == 2 && got != want {
							t.Errorf("FusedCuts %s at P=2, want %s", got, want)
						}
					})
				}
			}
		}
	}
}

// TestServeWithFaultsKeepsEveryCut: a fault plan names stages, so a serve
// that carries one fuses nothing — on a stateless cut FusionAuto would
// otherwise fuse whole — says so in every verdict, and still attributes a
// stage-3 fault to stage 3.
func TestServeWithFaultsKeepsEveryCut(t *testing.T) {
	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := repro.Partition(prog, repro.WithStages(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pipe.Plan().FusedCuts); got != 3 {
		t.Fatalf("without a fault plan FusionAuto fuses %d cuts, want 3", got)
	}
	const n = 24
	m, err := pipe.Serve(context.Background(), repro.PacketSource(pps.Traffic(n)),
		repro.WithWorld(netbench.NewWorld(nil)),
		repro.WithFaultsForTest(&fault.Plan{Injections: []fault.Injection{{Kind: fault.Panic, Stage: 3, At: 4}}}))
	if err != nil {
		t.Fatal(err)
	}
	plan := pipe.Plan()
	if len(plan.FusedCuts) != 0 || plan.Units() != "[1] [2] [3] [4]" || len(plan.FusionWhy) != 3 {
		t.Errorf("fault plan did not keep every cut: fused %v units %s verdicts %q", plan.FusedCuts, plan.Units(), plan.FusionWhy)
	}
	for _, why := range plan.FusionWhy {
		if !strings.Contains(why, "kept: the fault plan names stages") {
			t.Errorf("verdict does not say why the cut is kept: %q", why)
		}
	}
	rep := m.Faults
	if rep.Quarantined != 1 || len(rep.Records) != 1 || rep.Records[0].Stage != 3 || rep.Records[0].Iter != 4 {
		t.Fatalf("stage-3 panic misattributed:\n%s", rep)
	}
	for _, st := range m.Stages {
		if st.FusedInto != 0 {
			t.Errorf("stage %d reported as fused into %d under a fault plan", st.Stage, st.FusedInto)
		}
	}
	if rep.Accounted() != m.Stages[0].In || m.Packets != n-1 {
		t.Errorf("ledger: accounted %d of %d pulled, delivered %d", rep.Accounted(), m.Stages[0].In, m.Packets)
	}
}

// TestServeConcurrentlySharesShapes: a Pipeline is safe for concurrent use,
// and the coarsened shapes it caches are the one state its serves share.
// Eight serves start together on a fresh pipeline whose static plan fuses
// every cut — all of them reach for the same not-yet-realized shape — and
// each must come back with the oracle's trace.
func TestServeConcurrentlySharesShapes(t *testing.T) {
	prog := repro.MustCompile(facadeSrc)
	const n = 64
	packets := testPackets(n)
	seq := seqTrace(t, prog, packets, n)
	pipe, err := repro.Partition(prog, repro.WithStages(4), repro.WithFusion(repro.FusionOff))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := pipe.Serve(context.Background(), repro.PacketSource(packets), repro.WithFusion(repro.FusionAuto))
			if err != nil {
				t.Error(err)
				return
			}
			if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
				t.Errorf("concurrent fused serve diverged: %s", diff)
			}
		}()
	}
	wg.Wait()
	if got := pipe.Plan().Units(); got != "[1+2+3+4]" {
		t.Errorf("served %s, want the whole cut fused", got)
	}
}
