package repro_test

import (
	"context"
	"io"
	"math"
	"os"
	"path/filepath"
	gort "runtime"
	"strconv"
	"testing"
	"time"

	"repro"
	"repro/internal/ingest"
	"repro/internal/interp"
	"repro/internal/netbench"
)

// netbenchOracle runs the unpartitioned program on the interpreter in the
// netbench world (route tables and all) the serves below run in.
func netbenchOracle(t *testing.T, prog *repro.Program, traffic [][]byte) []repro.Event {
	t.Helper()
	seq, err := interp.RunSequential(prog.Clone(), netbench.NewWorld(traffic), len(traffic))
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// digest pushes a trace through a fresh hash sink.
func digest(evs []repro.Event) (uint64, int64) {
	var h repro.HashSink
	h.Push(context.Background(), evs)
	return h.Digest()
}

// TestServeHashSinkMatchesOracle: under WithSink(hash) nothing of the stream
// is kept, and its digest is the oracle trace's — the IPv4 PPS at D=1..4 as
// FusionAuto realizes it, and the IP PPS on mixed v4/v6 traffic at D=4 on
// two shards by flow key, through the sink unit's online merge.
func TestServeHashSinkMatchesOracle(t *testing.T) {
	const n = 3000
	type row struct {
		app     string
		traffic [][]byte
		d       int
		opts    []repro.Option
	}
	var rows []row
	for d := 1; d <= 4; d++ {
		rows = append(rows, row{"IPv4", netbench.IPv4Stream(n), d, nil})
	}
	rows = append(rows, row{"IP(v4)", netbench.MixedStream(n), 4,
		[]repro.Option{repro.WithShards(2), repro.WithShardKey(repro.FlowKey)}})
	for _, r := range rows {
		pps, _ := netbench.ByName(r.app)
		prog, err := pps.Compile()
		if err != nil {
			t.Fatal(err)
		}
		wantSum, wantN := digest(netbenchOracle(t, prog, r.traffic))
		pipe, err := repro.Partition(prog, repro.WithStages(r.d))
		if err != nil {
			t.Fatal(err)
		}
		sink := &repro.HashSink{}
		opts := append([]repro.Option{repro.WithWorld(netbench.NewWorld(nil)), repro.WithBatch(32), repro.WithSink(sink)}, r.opts...)
		m, err := pipe.Serve(context.Background(), repro.PacketSource(r.traffic), opts...)
		if err != nil {
			t.Fatalf("%s D=%d: %v", r.app, r.d, err)
		}
		if sum, events := sink.Digest(); sum != wantSum || events != wantN || m.Flushed != wantN {
			t.Errorf("%s D=%d %s: digest %016x over %d events (flushed %d), oracle %016x over %d",
				r.app, r.d, pipe.Plan().Units(), sum, events, m.Flushed, wantSum, wantN)
		}
		if m.Trace != nil || m.Packets != n || m.Faults.Accounted() != m.Stages[0].In {
			t.Errorf("%s D=%d: trace kept %v, %d packets, ledger %s", r.app, r.d, m.Trace != nil, m.Packets, m.Faults)
		}
	}
}

// TestServePcapSinkRoundTrip: testdata/flows.pcap, served, written by the pcap
// sink and read back through the ingest pcap source yields exactly the
// packets the oracle sends, in order — unsharded and through the sink unit.
func TestServePcapSinkRoundTrip(t *testing.T) {
	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := repro.Partition(prog, repro.WithStages(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		src, err := repro.OpenSource("pcap://" + filepath.Join("testdata", "flows.pcap"))
		if err != nil {
			t.Fatal(err)
		}
		tee := ingest.Tee(src)
		path := filepath.Join(t.TempDir(), "egress.pcap")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := pipe.Serve(context.Background(), nil, repro.WithSource(tee), repro.WithWorld(netbench.NewWorld(nil)),
			repro.WithBatch(16), repro.WithShards(p), repro.WithSink(repro.NewPcapSink(f)))
		if err != nil {
			t.Fatal(err)
		}
		src.Close()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		for _, e := range netbenchOracle(t, prog, tee.Captured()) {
			if e.Kind == interp.EvSend {
				want = append(want, e.Pkt)
			}
		}
		if m.Flushed != int64(len(want)) || len(want) == 0 {
			t.Fatalf("P=%d: sink flushed %d records, the oracle sends %d packets", p, m.Flushed, len(want))
		}
		back, err := repro.OpenSource("pcap://" + path)
		if err != nil {
			t.Fatalf("P=%d: the written capture does not parse: %v", p, err)
		}
		var got [][]byte
		buf := make([][]byte, 64)
		for {
			k, err := back.Pull(context.Background(), buf)
			got = append(got, buf[:k]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		back.Close()
		if len(got) != len(want) {
			t.Fatalf("P=%d: read back %d packets, want %d", p, len(got), len(want))
		}
		for i := range want {
			if string(got[i]) != string(want[i]) {
				t.Fatalf("P=%d: packet %d differs from the oracle's send %d", p, i, i)
			}
		}
	}
}

// heapMarks is a generator source that reads the heap in use — after a
// collection, so garbage does not count — when a tenth of the stream has been
// pulled and again when it ends: the pipeline is still up at both marks. The
// stream is n packets long, or, with a deadline, as long as that lasts.
type heapMarks struct {
	repro.BatchSource
	n, pulled int64
	start     time.Time
	deadline  time.Duration
	at10, end uint64
}

func (h *heapMarks) inuse() uint64 {
	var ms gort.MemStats
	gort.GC()
	gort.ReadMemStats(&ms)
	return ms.HeapInuse
}

func (h *heapMarks) Pull(ctx context.Context, dst [][]byte) (int, error) {
	tenth := h.pulled >= h.n/10
	over := false
	if h.deadline > 0 {
		el := time.Since(h.start)
		tenth, over = el >= h.deadline/10, el >= h.deadline
	}
	if tenth && h.at10 == 0 {
		h.at10 = h.inuse()
	}
	k, err := 0, io.EOF
	if !over {
		k, err = h.BatchSource.Pull(ctx, dst)
	}
	if err == io.EOF {
		h.end = h.inuse()
	}
	h.pulled += int64(k)
	return k, err
}

// TestSoakDiscardSink is the bounded-memory check: gen://ipv4 through the
// discard sink, unsharded and on two shards, with the heap in use at the end
// of the stream within 8 MiB of what it was a tenth of the way in, and the
// packet ledger balanced. It runs 200,000 packets by default; ci.sh sets
// SOAK_PACKETS to ten million, or SOAK_SECONDS to serve by the clock.
func TestSoakDiscardSink(t *testing.T) {
	n, secs := int64(200_000), 0
	if v := os.Getenv("SOAK_PACKETS"); v != "" {
		n, _ = strconv.ParseInt(v, 10, 64)
	}
	if v := os.Getenv("SOAK_SECONDS"); v != "" {
		secs, _ = strconv.Atoi(v)
		n = 1 << 40
	}
	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2} {
		gen, err := repro.OpenSource("gen://ipv4?packets=" + strconv.FormatInt(n, 10))
		if err != nil {
			t.Fatal(err)
		}
		src := &heapMarks{BatchSource: gen, n: n, start: time.Now(), deadline: time.Duration(secs) * time.Second}
		m, err := pipe.Serve(context.Background(), nil, repro.WithSource(src), repro.WithWorld(netbench.NewWorld(nil)),
			repro.WithBatch(32), repro.WithShards(p), repro.WithShardKey(repro.FlowKey), repro.WithSink(repro.DiscardSink()))
		gen.Close()
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if in := m.Stages[0].In; m.Faults.Accounted() != in || in != src.pulled || m.Packets == 0 {
			t.Errorf("P=%d: ledger %s against %d pulled, %d handed out", p, m.Faults, in, src.pulled)
		}
		t.Logf("P=%d: %d packets at %.0f pkt/s, heap in use %.1f MiB at 10%%, %.1f MiB at the end",
			p, m.Packets, m.PacketsPerSecond(), float64(src.at10)/(1<<20), float64(src.end)/(1<<20))
		if src.end > src.at10+8<<20 {
			t.Errorf("P=%d: heap in use grew from %d to %d bytes over the stream", p, src.at10, src.end)
		}
	}
}

// TestServeCutAllocBudget holds what a ringed cut costs in allocations:
// IPv4 served at D=1 and at D=4 with every cut on a ring, batch 32, 98,304
// packets into the discard sink, each pipeline served once to warm up and
// then measured as the least of three serves (what the Go runtime allocates
// for itself — timers, goroutines — varies from run to run). A batch hands
// its live sets on in two blocks, sized once per serve and recycled with it,
// so the three cuts may cost at most 500 mallocs more than D=1 over the
// whole serve, and D=4 may take no more bytes per packet than the 59.1
// (5.81 MB) it took when every token carried its own live-set rows. The
// serve runs at GOMAXPROCS=2: the Go runtime's own parking records, which a
// ringed serve's waits allocate, grow with the number of Ps.
func TestServeCutAllocBudget(t *testing.T) {
	const n, batch = 98_304, 32
	setCores(t, 2)
	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	traffic := pps.Traffic(256)
	serve := func(d int) (mallocs, bytes uint64) {
		pipe, err := repro.Partition(prog, repro.WithStages(d))
		if err != nil {
			t.Fatal(err)
		}
		mallocs = math.MaxUint64
		var before, after gort.MemStats
		for run := 0; run < 4; run++ {
			world := netbench.NewWorld(nil)
			gort.ReadMemStats(&before)
			m, err := pipe.Serve(context.Background(), repro.RepeatSource(traffic, n), repro.WithWorld(world),
				repro.WithBatch(batch), repro.WithFusion(repro.FusionOff), repro.WithSink(repro.DiscardSink()))
			gort.ReadMemStats(&after)
			if err != nil || m.Packets != n {
				t.Fatalf("D=%d: served %d of %d packets: %v", d, m.Packets, n, err)
			}
			if got := after.Mallocs - before.Mallocs; run > 0 && got < mallocs {
				mallocs, bytes = got, after.TotalAlloc-before.TotalAlloc
			}
		}
		return mallocs, bytes
	}
	m1, b1 := serve(1)
	m4, b4 := serve(4)
	t.Logf("D=1: %d mallocs, %.1f B/pkt; D=4: %d mallocs, %.1f B/pkt", m1, float64(b1)/n, m4, float64(b4)/n)
	if m4 > m1+500 {
		t.Errorf("D=4 took %d mallocs, D=1 %d: the cuts cost %d, want at most 500", m4, m1, m4-m1)
	}
	if perPkt := float64(b4) / n; perPkt > 59.1 {
		t.Errorf("D=4 took %.1f B/pkt, want at most 59.1", perPkt)
	}
}
