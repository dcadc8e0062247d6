package runtime_test

// Black-box coverage of the inter-stage rings through the public Config
// surface: served over the lock-free SPSC ring, every benchmark pipeline
// must produce a trace byte-identical to the sequential oracle at every
// realization (ringed, and coarsened where replica widths align) and shard
// width the matrix sweeps — and
// the ring must actually overlap stages when the host has the cores for
// it.

import (
	"context"
	"fmt"
	gort "runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/netbench"
	"repro/internal/runtime"
)

// TestRingImplOracleMatrix is the ring check: allApps × {ringed, fused} ×
// P in {1, 4} at the default batch, plus the ringed layout at batches of 33
// and 64 — a batch wider than one 32-lane exec group, the second group
// ragged or full — each point's merged trace byte-identical to the
// sequential oracle and its fault ledger balanced. The matrix is
// deliberately -race and -count=2 safe: every serve is self-contained
// (fresh world, fresh config), so the CI ring gate runs it under both to
// shake out ordering bugs in the ring's publish/claim protocol that a
// single quiet pass would miss.
func TestRingImplOracleMatrix(t *testing.T) {
	const n, wide = 32, 3*64 + 7
	for _, pps := range allApps() {
		prog, err := pps.Compile()
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		a, err := core.Analyze(prog, nil)
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		const d = 4
		res, err := a.Partition(core.Options{Stages: d})
		if err != nil {
			t.Fatalf("%s D=%d: %v", pps.Name, d, err)
		}
		for _, pt := range []struct {
			tag   string
			fuse  uint64
			batch int
		}{{"ringed", 0, 0}, {"fused", ^uint64(0), 0}, {"ringed/batch=33", 0, 33}, {"ringed/batch=64", 0, 64}} {
			packets := n
			if pt.batch > 0 {
				packets = wide
			}
			traffic := pps.Traffic(packets)
			seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), packets)
			if err != nil {
				t.Fatalf("%s: sequential: %v", pps.Name, err)
			}
			for _, p := range []int{1, 4} {
				name := fmt.Sprintf("%s/%s/P=%d", pps.Name, pt.tag, p)
				world := netbench.NewWorld(nil)
				cfg := runtime.Config{Batch: pt.batch}
				cfg.Shards = p
				l, err := runtime.CoarseLayout(res, pt.fuse, true, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				m, err := l.Serve(context.Background(), world, runtime.Packets(traffic))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if m.Packets != int64(packets) {
					t.Errorf("%s: served %d packets, want %d", name, m.Packets, packets)
				}
				if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
					t.Errorf("%s: trace diverges from oracle: %s", name, diff)
				}
				if diff := interp.TraceEqual(seq, world.Trace); diff != "" {
					t.Errorf("%s: world trace diverges: %s", name, diff)
				}
				if rep := m.Faults; rep.Accounted() != m.Stages[0].In {
					t.Errorf("%s: accounting hole: %s", name, rep)
				}
				for _, s := range m.Stages {
					if s.LostWakeups != 0 {
						t.Errorf("%s: stage %d: %d lost wakeups (the park backstop rescued a handshake)", name, s.Stage, s.LostWakeups)
					}
				}
			}
		}
	}
}

// TestRingSPSCWaitCountersAccount checks the spin/park stall split is
// actually populated under backpressure: with single-entry rings and a
// deep pipeline, blocked waits must happen, and every blocked wait must
// land in exactly one of the two phases (SpinWait + ParkWait is the whole
// handoff wait, split the other way as TxWait + RxWait). Spin time always
// comes with a counted spin. Park time comes with a counted park except at
// the last stage, which pushes to the Sink: it books its time inside
// Sink.Push as parked without parking (StageStats.TxWait), so it may show
// park time and no park.
func TestRingSPSCWaitCountersAccount(t *testing.T) {
	const n = 200
	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := runtime.Config{RingCapacity: 1, Batch: 1}
	m, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil),
		runtime.Packets(pps.Traffic(n)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var waits int64
	for _, s := range m.Stages {
		waits += s.Spins + s.Parks
		if s.SpinWait+s.ParkWait != s.TxWait+s.RxWait {
			t.Errorf("stage %d: spin/park split %v+%v disagrees with tx/rx split %v+%v",
				s.Stage, s.SpinWait, s.ParkWait, s.TxWait, s.RxWait)
		}
		if s.LostWakeups != 0 {
			t.Errorf("stage %d: %d lost wakeups (the park backstop rescued a handshake)", s.Stage, s.LostWakeups)
		}
		toSink := s.Stage == len(m.Stages)
		if (s.Spins == 0 && s.SpinWait > 0) || (!toSink && s.Parks == 0 && s.ParkWait > 0) {
			t.Errorf("stage %d: wait time without a counted wait (spins=%d spin=%v parks=%d park=%v)",
				s.Stage, s.Spins, s.SpinWait, s.Parks, s.ParkWait)
		}
	}
	if waits == 0 {
		t.Error("single-entry rings over a deep pipeline produced no blocked waits")
	}
}

// TestScatterWaitIsBooked pins the scatter junction's wait accounting: a
// scatter that finds a lane ring full waits the ring's own way, so the
// blocked time lands in the stage's TxWait like any other full ring. QM at
// D=4, P=4 has a mid-pipeline scatter (stage 2, the merge[2]scatter unit of
// TestBuildUnits); single-entry rings make it stall.
func TestScatterWaitIsBooked(t *testing.T) {
	const n, scatter = 2000, 1 // stage 2, 0-based
	pps, _ := netbench.ByName("QM")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	traffic := pps.Traffic(n)
	seq, err := interp.RunSequential(prog.Clone(), netbench.NewWorld(traffic), n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := runtime.Config{RingCapacity: 1, Batch: 1, Shards: 4}
	m, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil),
		runtime.Packets(traffic), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatalf("trace diverges from oracle: %s", diff)
	}
	if m.Stages[scatter].Replicas != 1 || m.Stages[scatter+1].Replicas != 4 {
		t.Fatalf("stage %d is not a 1->4 scatter: replicas %d -> %d", scatter+1,
			m.Stages[scatter].Replicas, m.Stages[scatter+1].Replicas)
	}
	for _, s := range m.Stages {
		if s.SpinWait+s.ParkWait != s.TxWait+s.RxWait {
			t.Errorf("stage %d: spin/park split %v+%v disagrees with tx/rx split %v+%v",
				s.Stage, s.SpinWait, s.ParkWait, s.TxWait, s.RxWait)
		}
	}
	sc := m.Stages[scatter]
	if sc.Stalls == 0 {
		t.Skip("the scatter never found a lane full on this run; nothing to book")
	}
	if sc.TxWait == 0 {
		t.Errorf("scatter stage stalled %d times but booked no transmit-side wait", sc.Stalls)
	}
}

// TestRingSPSCMultiCorePipelineWins is the overlap check the ring exists
// for: on a host with enough cores to actually run stages concurrently, a
// D=4 batched SPSC pipeline must at least match the D=1 realization of
// the same program. On narrower hosts the premise is false — the stages
// time-slice one core and the deep pipeline's handoffs are pure overhead
// — so the test skips honestly rather than asserting a property the
// hardware cannot exhibit.
func TestRingSPSCMultiCorePipelineWins(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion; skipped in -short")
	}
	if ncpu := gort.NumCPU(); ncpu < 4 {
		t.Skipf("host has %d CPU(s); pipeline overlap needs >= 4", ncpu)
	}
	const n = 120000
	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	traffic := pps.Traffic(256)
	serve := func(d int) float64 {
		res, err := a.Partition(core.Options{Stages: d})
		if err != nil {
			t.Fatalf("D=%d: %v", d, err)
		}
		cfg := runtime.Config{Batch: 32}
		m, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil),
			runtime.Repeat(traffic, n), cfg)
		if err != nil {
			t.Fatalf("D=%d: %v", d, err)
		}
		return m.PacketsPerSecond()
	}
	d1, d4 := serve(1), serve(4)
	// 0.9: same-host timing noise allowance; the point is that the deep
	// SPSC pipeline is in the same league as D=1, not strictly above it on
	// a loaded CI box.
	if d4 < d1*0.9 {
		t.Errorf("D=4 SPSC pipeline serves %.0f pkt/s, below D=1's %.0f pkt/s on %d cores",
			d4, d1, gort.NumCPU())
	}
}
