package runtime_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	gort "runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
	"repro/internal/obsv"
	"repro/internal/runtime"
)

// allApps returns every netbench PPS (deduplicated by name).
func allApps() []netbench.PPS {
	seen := map[string]bool{}
	var out []netbench.PPS
	for _, p := range append(netbench.IPv4Forwarding(), netbench.IPForwarding()...) {
		if !seen[p.Name] {
			seen[p.Name] = true
			out = append(out, p)
		}
	}
	return out
}

// TestServeMatchesOracle is the tentpole correctness check: for every
// benchmark PPS, at D in {2,4,8}, batched and unbatched, the concurrently
// served trace must be byte-identical to the sequential oracle's.
func TestServeMatchesOracle(t *testing.T) {
	const n = 48
	for _, pps := range allApps() {
		prog, err := pps.Compile()
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		a, err := core.Analyze(prog, nil)
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		traffic := pps.Traffic(n)
		seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
		if err != nil {
			t.Fatalf("%s: sequential: %v", pps.Name, err)
		}
		for _, d := range []int{2, 4, 8} {
			res, err := a.Partition(core.Options{Stages: d})
			if err != nil {
				t.Fatalf("%s D=%d: %v", pps.Name, d, err)
			}
			for _, batch := range []int{1, 8} {
				name := fmt.Sprintf("%s/D=%d/batch=%d", pps.Name, d, batch)
				world := netbench.NewWorld(nil)
				cfg := runtime.Config{}
				cfg.Batch = batch
				m, err := runtime.Serve(context.Background(), res.Stages, world, runtime.Packets(traffic), cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if m.Packets != n {
					t.Errorf("%s: served %d packets, want %d", name, m.Packets, n)
				}
				if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
					t.Errorf("%s: trace diverges from oracle: %s", name, diff)
				}
				if diff := interp.TraceEqual(seq, world.Trace); diff != "" {
					t.Errorf("%s: world trace diverges: %s", name, diff)
				}
				for _, s := range m.Stages {
					if s.In != n || s.Out != n {
						t.Errorf("%s: stage %d counters in=%d out=%d, want %d",
							name, s.Stage, s.In, s.Out, n)
					}
				}
			}
		}
	}
}

// TestServeBackpressure squeezes the rings to a single entry so upstream
// stages must repeatedly wait on downstream ones; behaviour must be
// unaffected and the counters consistent.
func TestServeBackpressure(t *testing.T) {
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
	traffic := pps.Traffic(n)
	seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runtime.Config{RingCapacity: 1, Batch: 1}
	m, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil), runtime.Packets(traffic), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatalf("trace diverges under backpressure: %s", diff)
	}
	if m.Packets != n {
		t.Fatalf("served %d packets, want %d", m.Packets, n)
	}
}

// TestServeCancelDrainsCleanly cancels a serve mid-stream and checks that
// Serve returns the context error promptly and leaks no goroutines.
func TestServeCancelDrainsCleanly(t *testing.T) {
	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := gort.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		// Cancel once the pipeline is demonstrably mid-stream.
		<-done
		cancel()
	}()
	served := 0
	src := runtime.SourceFunc(func() ([]byte, bool) {
		served++
		if served == 500 {
			close(done)
		}
		return netbench.IPv4Stream(1)[0], true // endless stream
	})
	m, err := runtime.Serve(ctx, res.Stages, netbench.NewWorld(nil), src, runtime.Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m == nil {
		t.Fatal("expected partial metrics on cancellation")
	}
	// All stage goroutines must be gone (allow the scheduler a moment).
	deadline := time.Now().Add(2 * time.Second)
	for gort.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := gort.NumGoroutine(); g > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak after cancel: %d > %d\n%s", g, before, buf[:gort.Stack(buf, true)])
	}
}

// TestServeCancelLedgerBalances cancels serves at seeded random pulls — the
// source itself cancels, so the cancel lands wherever the pipeline happens to
// be — and holds each run's ledger to the packet: every packet the head
// pulled is delivered, shed or quarantined, at P = 1 and 2, with every cut on
// a ring and with cuts 1 and 3 un-made.
func TestServeCancelLedgerBalances(t *testing.T) {
	const seeds = 20
	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 4})
	if err != nil {
		t.Fatal(err)
	}
	traffic := pps.Traffic(64)
	for _, p := range []int{1, 2} {
		for _, fuse := range []uint64{0, 0b101} {
			t.Run(fmt.Sprintf("P=%d/fuse=%03b", p, fuse), func(t *testing.T) {
				l, err := runtime.CoarseLayout(res, fuse, true, runtime.Config{Shards: p})
				if err != nil {
					t.Fatal(err)
				}
				for seed := int64(0); seed < seeds; seed++ {
					cancelAt := 1 + rand.New(rand.NewSource(seed)).Intn(400)
					ctx, cancel := context.WithCancel(context.Background())
					pulls := 0
					src := runtime.SourceFunc(func() ([]byte, bool) {
						pulls++
						if pulls == cancelAt {
							cancel()
						}
						return traffic[pulls%len(traffic)], true // endless stream
					})
					m, err := l.Serve(ctx, netbench.NewWorld(nil), src)
					cancel()
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("seed %d: err = %v, want context.Canceled", seed, err)
					}
					checkAccounting(t, m)
					if t.Failed() {
						t.Fatalf("seed %d: cancel at pull %d unbalanced the ledger\n%s", seed, cancelAt, m.Faults)
					}
				}
			})
		}
	}
}

// TestValidateRejectsUnservable covers the servability contract.
func TestValidateRejectsUnservable(t *testing.T) {
	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 2})
	if err != nil {
		t.Fatal(err)
	}
	world := netbench.NewWorld(nil)
	src := runtime.Packets(nil)
	cases := []struct {
		name   string
		stages []*ir.Program
		world  *interp.World
		src    runtime.Source
		cfg    runtime.Config
		want   error
		names  string // the Config field a bad value's message must name
	}{
		{"no stages", nil, world, src, runtime.Config{}, errs.ErrNoStages, ""},
		{"nil stage", []*ir.Program{nil}, world, src, runtime.Config{}, errs.ErrNilStage, ""},
		{"two rx sites", []*ir.Program{res.Stages[0], res.Stages[0]}, world, src, runtime.Config{}, errs.ErrNotServable, ""},
		{"nil world", res.Stages, nil, src, runtime.Config{}, errs.ErrNilWorld, ""},
		{"nil source", res.Stages, world, nil, runtime.Config{}, errs.ErrNilSource, ""},
		{"bad ring", res.Stages, world, src, runtime.Config{RingCapacity: -1}, errs.ErrBadOption, "RingCapacity -1"},
		{"bad batch", res.Stages, world, src, runtime.Config{Batch: -1}, errs.ErrBadOption, "Batch -1"},
	}
	for _, c := range cases {
		_, err := runtime.Serve(context.Background(), c.stages, c.world, c.src, c.cfg)
		if !errors.Is(err, c.want) || !strings.Contains(fmt.Sprint(err), c.names) {
			t.Errorf("%s: err = %v, want %v naming %q", c.name, err, c.want, c.names)
		}
	}

	// A stage list with no pkt_rx at all cannot pace the stream.
	norx, err := core.Partition(mustCompile(t, `pps NoRx { loop { trace(1); } }`), core.Options{Stages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := runtime.Validate(norx.Stages); !errors.Is(err, errs.ErrNotServable) {
		t.Errorf("no-rx pipeline: err = %v, want ErrNotServable", err)
	}

	// Hand-built stage lists over one persistent array (each program declares
	// it first, so the descriptors share ID 0): an array some stage stores to
	// belongs to that stage alone, whichever side of it the other access is
	// on; an array nothing stores to is a constant table, read anywhere.
	stage := func(body string) *ir.Program {
		res, err := core.Partition(mustCompile(t, `pps S { persistent var tab[16]; loop { `+body+` } }`), core.Options{Stages: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stages[0]
	}
	stores := stage(`var n = pkt_rx(); tab[n & 15] = n;`)
	reads := stage(`var n = pkt_rx(); trace(tab[n & 15]);`)
	loads := stage(`trace(tab[3]);`)
	for _, c := range []struct {
		name   string
		stages []*ir.Program
		want   string // "": servable
	}{
		{"load after the store", []*ir.Program{stores, loads}, "tab stored to by stage 1 and used by stage 2"},
		{"load before the store", []*ir.Program{loads, stores}, "tab stored to by stage 2 and used by stage 1"},
		{"loads only", []*ir.Program{reads, loads}, ""},
	} {
		err := runtime.Validate(c.stages)
		if c.want == "" && err != nil || c.want != "" && (!errors.Is(err, errs.ErrNotServable) || !strings.Contains(fmt.Sprint(err), c.want)) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

func mustCompile(t *testing.T, src string) *ir.Program {
	t.Helper()
	pps := netbench.PPS{Name: "test", Source: src}
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestServeSourceExhaustionDrains checks the graceful-shutdown path: a
// source shorter than one batch still drains fully.
func TestServeSourceExhaustionDrains(t *testing.T) {
	pps, _ := netbench.ByName("RX")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 3})
	if err != nil {
		t.Fatal(err)
	}
	traffic := pps.Traffic(5)
	cfg := runtime.Config{}
	cfg.Batch = 32 // much larger than the stream
	m, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil), runtime.Packets(traffic), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Packets != 5 {
		t.Fatalf("served %d packets, want 5", m.Packets)
	}
	seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), 5)
	if err != nil {
		t.Fatal(err)
	}
	if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatal(diff)
	}
}

// traceOnlySrc is a one-stage-able PPS whose observable output is trace
// events only (no sends), so its trace is nothing but the Event array.
const traceOnlySrc = `
pps TraceOnly {
	loop {
		var len = pkt_rx();
		trace(len);
		trace(pkt_byte(0));
		trace(pkt_byte(1));
		trace(pkt_byte(2));
	}
}`

// TestServeReleasesEngine: once Serve has returned, one collection must
// leave little more than the returned trace on the heap. The engine — the
// chunked second copy of the trace, the tokens, the runners — once stayed
// reachable for two more GC cycles through sync's pool registry, because
// token pools were embedded in it, so a caller serving again soon after held
// a full extra trace resident. The collector is held off while Serve runs,
// so anything that registered the engine would still hold it when Serve
// returns, whatever the host's GC pacing.
func TestServeReleasesEngine(t *testing.T) {
	const n = 100_000
	prog := mustCompile(t, traceOnlySrc)
	res, err := core.Partition(prog, core.Options{Stages: 1})
	if err != nil {
		t.Fatal(err)
	}
	traffic := ipv4Traffic(64)
	var before, after gort.MemStats
	for i := 0; i < 3; i++ {
		gort.GC()
	}
	gort.ReadMemStats(&before)
	gcPercent := debug.SetGCPercent(-1)
	m, err := runtime.Serve(context.Background(), res.Stages, interp.NewWorld(nil),
		runtime.Repeat(traffic, n), runtime.Config{Batch: 32})
	debug.SetGCPercent(gcPercent)
	if err != nil {
		t.Fatal(err)
	}
	gort.GC()
	gort.ReadMemStats(&after)
	traceBytes := int64(len(m.Trace)) * int64(unsafe.Sizeof(interp.Event{}))
	if traceBytes < n*4*24 {
		t.Fatalf("trace holds %d bytes, expected four events per packet", traceBytes)
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth > traceBytes*3/2 {
		t.Errorf("heap grew %d bytes across Serve + one GC, more than 1.5x the trace's own %d bytes: the engine is still pinned",
			growth, traceBytes)
	}
	gort.KeepAlive(m)
}

// TestPacedSourceNotBookedAsExec: time the head spends blocked on the
// Source is its wait, not stage 1's work. With a source that sleeps before
// every packet, stage 1's busy time per packet must stay far below the
// inter-arrival gap (it used to include it, booking idle arrival gaps as
// stage-1 cost), the gap must show up as
// stage-1 wait spans instead, and RxWait must stay a pure ring-wait
// column.
func TestPacedSourceNotBookedAsExec(t *testing.T) {
	const n, gap = 64, 500 * time.Microsecond
	_, stages := partitionIPv4(t, 2)
	traffic := ipv4Traffic(n)
	i := 0
	src := runtime.SourceFunc(func() ([]byte, bool) {
		if i == n {
			return nil, false
		}
		time.Sleep(gap)
		i++
		return traffic[i-1], true
	})
	tr := obsv.NewTracer(0)
	cfg := runtime.Config{Batch: 8, Obs: &obsv.Observer{Tracer: tr}}
	m, err := runtime.Serve(context.Background(), stages, netbench.NewWorld(nil), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	head := m.Stages[0]
	if head.In != n {
		t.Fatalf("head pulled %d packets, want %d", head.In, n)
	}
	if perPkt := head.Busy / n; perPkt > gap/4 {
		t.Errorf("stage 1 busy %v per packet under a %v arrival gap: the source pull is booked as work", perPkt, gap)
	}
	if head.RxWait != 0 {
		t.Errorf("head RxWait = %v, want 0 (no inbound ring; SpinWait+ParkWait must equal TxWait+RxWait)", head.RxWait)
	}
	totals := obsv.PhaseTotals(tr.Spans())
	if wait := totals[1][obsv.PhaseWait]; wait < n*gap/2 {
		t.Errorf("stage 1 wait spans total %v, want about %v of source pull", wait, n*gap)
	}
	if exec := totals[1][obsv.PhaseExec]; exec > n*gap/4 {
		t.Errorf("stage 1 exec spans total %v: still include the source pull", exec)
	}
}
