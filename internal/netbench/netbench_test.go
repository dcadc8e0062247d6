package netbench

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
)

func TestRouteTable4LPM(t *testing.T) {
	rt := NewRouteTable4()
	rt.Insert(0, 0, 99)                 // default
	rt.Insert(10<<24, 8, 1)             // 10/8
	rt.Insert(10<<24|1<<16, 16, 2)      // 10.1/16
	rt.Insert(10<<24|1<<16|2<<8, 24, 3) // 10.1.2/24
	cases := []struct {
		addr uint32
		want int64
	}{
		{10<<24 | 1<<16 | 2<<8 | 7, 3}, // most specific
		{10<<24 | 1<<16 | 9<<8, 2},
		{10<<24 | 9<<16, 1},
		{11 << 24, 99}, // default
	}
	for _, c := range cases {
		if got := rt.Lookup(c.addr); got != c.want {
			t.Errorf("Lookup(%08x) = %d, want %d", c.addr, got, c.want)
		}
	}
	if rt.Len() != 4 {
		t.Errorf("Len = %d, want 4", rt.Len())
	}
}

func TestRouteTable4NoDefault(t *testing.T) {
	rt := NewRouteTable4()
	rt.Insert(10<<24, 8, 1)
	if got := rt.Lookup(11 << 24); got != -1 {
		t.Errorf("miss should return -1, got %d", got)
	}
}

func TestRouteTable4InsertErrors(t *testing.T) {
	rt := NewRouteTable4()
	if err := rt.Insert(0, 33, 1); err == nil {
		t.Error("prefix length 33 accepted")
	}
	if err := rt.Insert(0, -1, 1); err == nil {
		t.Error("negative prefix length accepted")
	}
	// Re-inserting the same prefix updates, not duplicates.
	rt.Insert(1<<24, 8, 1)
	rt.Insert(1<<24, 8, 2)
	if rt.Len() != 1 {
		t.Errorf("Len = %d after overwrite, want 1", rt.Len())
	}
	if got := rt.Lookup(1<<24 | 5); got != 2 {
		t.Errorf("overwritten next hop = %d, want 2", got)
	}
}

func TestRouteTable6LPM(t *testing.T) {
	rt := NewRouteTable6()
	rt.Insert(0, 0, 0, 9)
	rt.Insert(0x2001_0db8_0000_0000, 0, 32, 1)
	rt.Insert(0x2001_0db8_0001_0000, 0, 64, 2)
	if got := rt.Lookup(0x2001_0db8_0001_0000, 42); got != 2 {
		t.Errorf("64-bit match = %d, want 2", got)
	}
	if got := rt.Lookup(0x2001_0db8_9999_0000, 0); got != 1 {
		t.Errorf("32-bit match = %d, want 1", got)
	}
	if got := rt.Lookup(0x3000_0000_0000_0000, 0); got != 9 {
		t.Errorf("default = %d, want 9", got)
	}
	// Low-half bits matter beyond /64.
	rt.Insert(0x2001_0db8_0001_0000, 0x8000_0000_0000_0000, 65, 7)
	if got := rt.Lookup(0x2001_0db8_0001_0000, 0x8000_0000_0000_0001); got != 7 {
		t.Errorf("65-bit match = %d, want 7", got)
	}
}

// TestDemoFIBRouteErrorPanics: a demo route Insert refuses panics while
// the table is built instead of silently going missing from it.
func TestDemoFIBRouteErrorPanics(t *testing.T) {
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "bad prefix length 33") {
			t.Errorf("recovered %v, want a panic naming the refused length", r)
		}
	}()
	mustInstall(NewRouteTable4().Insert(10<<24, 33, 1))
}

// TestNewWorldSharesFIBs looks up through World.RT4/RT6 from eight
// goroutines at once, each with its own world over the one shared build of
// the demo FIBs, 10⁵ lookups apiece checked against the oracle — the
// concurrent reads are what -race checks — and holds NewWorld to a handful
// of allocations, which building the FIBs per world (232) would exceed.
func TestNewWorldSharesFIBs(t *testing.T) {
	o4, o6 := demoOracles(t)
	// Half the probes are generator addresses, so they reach the demo FIBs'
	// deep nodes; half are uniform.
	var gen4 []uint32
	var gen6 []key
	for k := 0; k < 1<<12; k++ {
		ip := MinIPv4Packet(k, 64)[FrameHdrLen:]
		gen4 = append(gen4, binary.BigEndian.Uint32(ip[12:]), binary.BigEndian.Uint32(ip[16:]))
		ip = MinIPv6Packet(k, 64)[FrameHdrLen:]
		for _, off := range []int{8, 24} {
			gen6 = append(gen6, key{binary.BigEndian.Uint64(ip[off:]), binary.BigEndian.Uint64(ip[off+8:])})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			w := NewWorld(nil)
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 50000; i++ {
				a4, a6 := r.Uint32(), key{r.Uint64(), r.Uint64()}
				if i%2 == 0 {
					a4, a6 = gen4[r.Intn(len(gen4))], gen6[r.Intn(len(gen6))]
				}
				if got, want := w.RT4(int64(a4)), o4.Lookup(a4); got != want {
					t.Errorf("RT4(%08x) = %d, oracle %d", a4, got, want)
					return
				}
				if got, want := w.RT6(int64(a6.hi), int64(a6.lo)), o6.Lookup(a6.hi, a6.lo); got != want {
					t.Errorf("RT6(%v) = %d, oracle %d", a6, got, want)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if n := testing.AllocsPerRun(100, func() { NewWorld(nil) }); n > 8 {
		t.Errorf("NewWorld makes %.0f allocations, want at most 8", n)
	}
}

// BenchmarkNewWorld is what every serve, test and oracle run pays for its
// world.
func BenchmarkNewWorld(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewWorld(nil)
	}
}

func TestMinIPv4PacketValid(t *testing.T) {
	p := MinIPv4Packet(5, 64)
	if len(p) != POSFrameSize {
		t.Fatalf("frame size = %d, want %d", len(p), POSFrameSize)
	}
	if p[0] != 0xFF || p[1] != 0x03 {
		t.Error("framing bytes wrong")
	}
	if int(p[2])<<8|int(p[3]) != PPPIPv4 {
		t.Error("PPP protocol wrong")
	}
	ip := p[4:]
	if ip[0] != 0x45 {
		t.Errorf("version/IHL = %02x", ip[0])
	}
	if csum16(ip[:20]) != 0 {
		t.Error("header checksum does not verify")
	}
	if ip[8] != 64 {
		t.Error("TTL wrong")
	}
}

func TestMinIPv6PacketValid(t *testing.T) {
	p := MinIPv6Packet(3, 64)
	if len(p) != POSFrameSize {
		t.Fatal("frame size wrong")
	}
	if int(p[2])<<8|int(p[3]) != PPPIPv6 {
		t.Error("PPP protocol wrong")
	}
	if p[4]>>4 != 6 {
		t.Error("version wrong")
	}
	if p[4+7] != 64 {
		t.Error("hop limit wrong")
	}
}

func TestStreamsDeterministicAndVaried(t *testing.T) {
	a := IPv4Stream(50)
	b := IPv4Stream(50)
	for i := range a {
		if string(a[i]) != string(b[i]) {
			t.Fatal("IPv4Stream not deterministic")
		}
	}
	// Destinations must vary so lookups hit different FIB entries.
	seen := map[string]bool{}
	for _, p := range a {
		seen[string(p[20:24])] = true
	}
	if len(seen) < 10 {
		t.Errorf("only %d distinct destinations in 50 packets", len(seen))
	}
	// Mixed stream alternates families.
	m := MixedStream(10)
	if int(m[0][2])<<8|int(m[0][3]) != PPPIPv4 || int(m[1][2])<<8|int(m[1][3]) != PPPIPv6 {
		t.Error("MixedStream does not alternate")
	}
}

func TestAllPPSesCompile(t *testing.T) {
	for _, p := range append(IPv4Forwarding(), IPForwarding()...) {
		if _, err := p.Compile(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("IPv4"); !ok {
		t.Error("IPv4 PPS not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("nonexistent PPS found")
	}
}

// TestAllPPSesRunSequentially checks every benchmark PPS executes its
// traffic without interpreter errors and emits observable events.
func TestAllPPSesRunSequentially(t *testing.T) {
	for _, p := range append(IPv4Forwarding(), IPForwarding()...) {
		prog, err := p.Compile()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		world := NewWorld(p.Traffic(40))
		trace, err := interp.RunSequential(prog, world, 40)
		if err != nil {
			t.Fatalf("%s: run: %v", p.Name, err)
		}
		if len(trace) == 0 {
			t.Errorf("%s: no observable events", p.Name)
		}
	}
}

// TestAllPPSesPipelineEquivalence is the benchmark-level correctness gate:
// every PPS, partitioned at several degrees, reproduces its sequential
// trace on real traffic.
func TestAllPPSesPipelineEquivalence(t *testing.T) {
	iters := 30
	for _, p := range append(IPv4Forwarding(), IPForwarding()...) {
		prog, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		seqWorld := NewWorld(p.Traffic(iters))
		seq, err := interp.RunSequential(prog.Clone(), seqWorld, iters)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, d := range []int{2, 5, 9} {
			res, err := core.Partition(prog, core.Options{Stages: d})
			if err != nil {
				t.Fatalf("%s D=%d: %v", p.Name, d, err)
			}
			pipe, err := interp.RunPipeline(res.Stages, NewWorld(p.Traffic(iters)), iters)
			if err != nil {
				t.Fatalf("%s D=%d: %v", p.Name, d, err)
			}
			if diff := interp.TraceEqual(seq, pipe); diff != "" {
				t.Fatalf("%s D=%d: %s", p.Name, d, diff)
			}
		}
	}
}

// TestIPv4PPSDropsExpiredTTL checks slow-path behaviour.
func TestIPv4PPSDropsExpiredTTL(t *testing.T) {
	p, _ := ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	world := NewWorld([][]byte{MinIPv4Packet(0, 1)})
	trace, err := interp.RunSequential(prog, world, 1)
	if err != nil {
		t.Fatal(err)
	}
	foundExpiry, foundDrop := false, false
	for _, e := range trace {
		if e.Kind == interp.EvTrace && e.Val == -11 {
			foundExpiry = true
		}
		if e.Kind == interp.EvDrop {
			foundDrop = true
		}
	}
	if !foundExpiry || !foundDrop {
		t.Errorf("TTL=1 packet not dropped on the slow path: %v", trace)
	}
}

// TestIPv4PPSForwardsAndDecrementsTTL checks fast-path behaviour.
func TestIPv4PPSForwardsAndDecrementsTTL(t *testing.T) {
	p, _ := ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	world := NewWorld([][]byte{MinIPv4Packet(1, 64)})
	trace, err := interp.RunSequential(prog, world, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sent *interp.Event
	for i := range trace {
		if trace[i].Kind == interp.EvSend {
			sent = &trace[i]
		}
	}
	if sent == nil {
		t.Fatal("valid packet was not forwarded")
	}
	if sent.Pkt[4+8] != 63 {
		t.Errorf("TTL after forwarding = %d, want 63", sent.Pkt[4+8])
	}
	// The updated header checksum must still verify.
	if csum16(sent.Pkt[4:24]) != 0 {
		t.Error("incremental checksum update broke the header checksum")
	}
}

// TestSchedulerIsLoopCarried verifies the paper's central negative result:
// the Scheduler PPS has a dominant dependence cycle, so its speedup stays
// flat while the IPv4 PPS keeps improving.
func TestSchedulerIsLoopCarried(t *testing.T) {
	sched, _ := ByName("Scheduler")
	ipv4, _ := ByName("IPv4")
	sp, err := sched.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ip, err := ipv4.Compile()
	if err != nil {
		t.Fatal(err)
	}
	schedRes, err := core.Partition(sp, core.Options{Stages: 8})
	if err != nil {
		t.Fatal(err)
	}
	ipRes, err := core.Partition(ip, core.Options{Stages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if schedRes.Report.Speedup > 2.0 {
		t.Errorf("Scheduler speedup = %.2f; the WRR state should prevent pipelining", schedRes.Report.Speedup)
	}
	if ipRes.Report.Speedup < 3.0 {
		t.Errorf("IPv4 speedup at 8 stages = %.2f, want >= 3", ipRes.Report.Speedup)
	}
	if ipRes.Report.Speedup <= schedRes.Report.Speedup {
		t.Error("IPv4 should pipeline far better than the Scheduler")
	}
}

// countOps tallies an op across a program (helper for structure checks).
func countOps(prog *ir.Program, op ir.Op) int {
	n := 0
	for _, b := range prog.Func.Blocks {
		for _, in := range b.Instrs {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

func TestIPv4PPSIsSubstantial(t *testing.T) {
	p, _ := ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range prog.Func.Blocks {
		total += len(b.Instrs)
	}
	if total < 250 {
		t.Errorf("IPv4 PPS has %d instructions; too small to reproduce the paper's scaling", total)
	}
	if countOps(prog, ir.OpCall) < 30 {
		t.Error("IPv4 PPS should make many intrinsic calls")
	}
}

// TestQMAppliesREDDrops drives the QM PPS into saturation and checks its
// RED-style admission behaviour.
func TestQMAppliesREDDrops(t *testing.T) {
	p, _ := ByName("QM")
	prog, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// Feed many packets of a single class so its queue depth passes the
	// thresholds (class = (pkt[5]^pkt[9]) & 3; zero-filled frames -> 0).
	n := 120
	packets := make([][]byte, n)
	for i := range packets {
		packets[i] = make([]byte, 48)
	}
	world := NewWorld(packets)
	trace, err := interp.RunSequential(prog, world, n)
	if err != nil {
		t.Fatal(err)
	}
	drops, sends := 0, 0
	for _, e := range trace {
		switch e.Kind {
		case interp.EvDrop:
			drops++
		case interp.EvSend:
			sends++
		}
	}
	if drops == 0 {
		t.Error("queue saturation never triggered a RED drop")
	}
	if sends == 0 {
		t.Error("QM admitted nothing")
	}
	// Accepted packets were enqueued to class queue 0.
	if got := len(world.Queues[0]); got == 0 {
		t.Error("no packets in the class queue")
	}
}

// TestSchedulerServesBackloggedQueues preloads queues and checks WRR picks.
func TestSchedulerServesBackloggedQueues(t *testing.T) {
	p, _ := ByName("Scheduler")
	prog, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	n := 40
	packets := make([][]byte, n)
	for i := range packets {
		packets[i] = make([]byte, 48)
	}
	world := NewWorld(packets)
	// Backlog all four queues.
	for q := int64(0); q < 4; q++ {
		for v := int64(0); v < 20; v++ {
			world.Queues[q] = append(world.Queues[q], q*100+v)
		}
	}
	trace, err := interp.RunSequential(prog, world, n)
	if err != nil {
		t.Fatal(err)
	}
	served := map[int64]int{}
	for _, e := range trace {
		if e.Kind == interp.EvTrace && e.Val >= 0 {
			served[e.Val/1000]++
		}
	}
	if len(served) < 3 {
		t.Errorf("WRR served only %d distinct queues: %v", len(served), served)
	}
	// Higher-weight queues are served at least as often as lower ones.
	if served[0] < served[3] {
		t.Errorf("weights inverted: q0=%d q3=%d", served[0], served[3])
	}
}
