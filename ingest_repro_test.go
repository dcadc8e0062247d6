package repro_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/ingest"
	"repro/internal/interp"
	"repro/internal/netbench"
)

// TestServeUDPLoopback is the network-facing acceptance path: packets
// sent over a real loopback UDP socket are served through a sharded,
// batched pipeline, and the served trace is byte-identical to the
// sequential oracle fed the same decoded packets (captured by a tee at
// the source boundary).
func TestServeUDPLoopback(t *testing.T) {
	prog, err := repro.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := repro.Partition(prog, repro.WithStages(3))
	if err != nil {
		t.Fatal(err)
	}

	src, err := ingest.OpenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	// UDP is lossy even on loopback (a burst can overflow the socket
	// buffer before the pipeline starts pulling), so the sender
	// retransmits rounds until the serve side has its fill; the oracle is
	// fed whatever actually arrived, so drops cannot break byte-identity.
	const packets = 500
	done := make(chan struct{})
	defer close(done)
	go func() {
		conn, err := net.Dial("udp", src.LocalAddr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			for i := 0; i < packets; i++ {
				select {
				case <-done:
					return
				default:
				}
				conn.Write(netbench.MinIPv4Packet(i, 64))
				if i%64 == 63 {
					time.Sleep(time.Millisecond)
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Limit bounds the open-ended socket stream; Tee captures exactly
	// the decoded packets the pipeline saw, for the oracle run below.
	tee := ingest.Tee(ingest.Limit(src, packets))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m, err := pipe.Serve(ctx, nil,
		repro.WithSource(tee),
		repro.WithBatch(8),
		repro.WithShards(2), repro.WithShardKey(repro.FlowKey))
	if err != nil {
		t.Fatal(err)
	}
	if m.Packets != packets {
		t.Fatalf("served %d packets, want %d", m.Packets, packets)
	}
	if m.Ingest == nil || m.Ingest.RxPackets != packets {
		t.Fatalf("metrics ingest counters missing or wrong: %+v", m.Ingest)
	}
	if snap := pipe.Snapshot(); snap == nil || snap.Ingest == nil || snap.Ingest.RxPackets != packets {
		t.Fatalf("snapshot ingest counters missing: %+v", snap)
	}

	seq := seqTrace(t, prog, tee.Captured(), len(tee.Captured()))
	if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatalf("served trace diverges from oracle on socket traffic: %s", diff)
	}
}

// TestServeGeneratorVsOracle serves the synthetic bursty source through
// OpenSource and checks trace byte-identity against the oracle.
func TestServeGeneratorVsOracle(t *testing.T) {
	prog, err := repro.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := repro.Partition(prog, repro.WithStages(4))
	if err != nil {
		t.Fatal(err)
	}
	src, err := repro.OpenSource("gen://ipv4?seed=3&packets=3000")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	tee := ingest.Tee(src)
	m, err := pipe.Serve(context.Background(), nil, repro.WithSource(tee), repro.WithBatch(16))
	if err != nil {
		t.Fatal(err)
	}
	if m.Packets != 3000 {
		t.Fatalf("served %d packets, want 3000", m.Packets)
	}
	seq := seqTrace(t, prog, tee.Captured(), len(tee.Captured()))
	if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatalf("served trace diverges from oracle on generated traffic: %s", diff)
	}
}

// TestWithSourceConflicts: supplying both the positional source and
// WithSource is rejected; a source error surfaces from Serve.
func TestWithSourceConflicts(t *testing.T) {
	prog, err := repro.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := repro.OpenSource("gen://ipv4?packets=10")
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()
	_, err = pipe.Serve(context.Background(), repro.PacketSource(testPackets(4)), repro.WithSource(gen))
	if !errors.Is(err, repro.ErrConflictingOptions) {
		t.Fatalf("double source: got %v, want ErrConflictingOptions", err)
	}
}

// failingSource dies on the first Pull; Serve must surface its error.
type failingSource struct {
	stats ingest.Stats
	err   error
}

func (f *failingSource) Pull(context.Context, [][]byte) (int, error) { return 0, f.err }
func (f *failingSource) Stats() *ingest.Stats                        { return &f.stats }
func (f *failingSource) Close() error                                { return nil }

func TestServeSourceErrorPropagates(t *testing.T) {
	prog, err := repro.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("NIC caught fire")
	_, err = pipe.Serve(context.Background(), nil, repro.WithSource(&failingSource{err: boom}))
	if !errors.Is(err, boom) {
		t.Fatalf("source I/O failure did not surface: got %v", err)
	}
}

// dyingSource passes its inner source's pulls through until pull number
// failAt, which returns its n > 0 packets together with err: a socket that
// delivered one last batch and then failed. handed counts what it gave out.
type dyingSource struct {
	ingest.Source
	failAt, pulls int
	handed        int64
	err           error
}

func (d *dyingSource) Pull(ctx context.Context, dst [][]byte) (int, error) {
	n, err := d.Source.Pull(ctx, dst)
	d.handed += int64(n)
	if d.pulls++; d.pulls == d.failAt && err == nil {
		err = d.err
	}
	return n, err
}

// TestServeSourceErrorMidStream: a Pull that returns (n > 0, err) ends the
// stream after those n packets, not before them. They are served, Serve
// returns the run's Metrics beside an error wrapping the source's, and the
// ledger balances against what the source handed over.
func TestServeSourceErrorMidStream(t *testing.T) {
	prog, err := repro.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := repro.OpenSource("gen://ipv4?seed=5&packets=1000")
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()
	tee := ingest.Tee(gen)
	boom := errors.New("NIC caught fire")
	src := &dyingSource{Source: tee, failAt: 3, err: boom}
	m, err := pipe.Serve(context.Background(), nil, repro.WithSource(src), repro.WithBatch(16))
	if !errors.Is(err, boom) {
		t.Fatalf("source I/O failure did not surface: got %v", err)
	}
	if m == nil {
		t.Fatal("Serve returned no Metrics for the packets it served before the source died")
	}
	if src.pulls != 3 || src.handed == 0 || src.handed >= 1000 {
		t.Fatalf("source pulled %d times handing over %d packets; want 3 pulls of a partial stream", src.pulls, src.handed)
	}
	if got := m.Faults.Accounted(); got != src.handed || m.Stages[0].In != src.handed ||
		m.Ingest.RxPackets != src.handed || m.Packets != src.handed {
		t.Errorf("source handed over %d packets: accounted %d, stage-1 in %d, ingest rx %d, delivered %d",
			src.handed, got, m.Stages[0].In, m.Ingest.RxPackets, m.Packets)
	}
	seq := seqTrace(t, prog, tee.Captured(), len(tee.Captured()))
	if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
		t.Errorf("the packets handed over with the error were not served as the oracle serves them: %s", diff)
	}
}

// TestOpenSourceBadSpec: the re-exported sentinel matches.
func TestOpenSourceBadSpec(t *testing.T) {
	if _, err := repro.OpenSource("smoke-signals://hill"); !errors.Is(err, repro.ErrBadSource) {
		t.Fatalf("got %v, want ErrBadSource", err)
	}
}

// flowsCaptureConfig is the generator profile behind testdata/flows.pcap:
// 4096 packets from 32 concurrent heavy-tailed flows, the default bursty
// arrival process, seed 42. The checked-in capture is Records of exactly
// this config anchored at flowsCaptureBase, so replaying the file and
// running the generator produce byte-identical packet streams.
func flowsCaptureConfig() ingest.GenConfig {
	cfg := ingest.DefaultGenConfig()
	cfg.Seed = 42
	cfg.Packets = 4096
	cfg.Flows = 32
	return cfg
}

// flowsCaptureBase anchors the capture's record timestamps (the paper's
// conference week; any fixed instant works, a changing one would churn
// the fixture).
func flowsCaptureBase() time.Time {
	return time.Date(2005, 6, 12, 9, 0, 0, 0, time.UTC)
}

// TestFlowsCaptureFixture pins testdata/flows.pcap — the capture
// TestServeFlowsCaptureReplay streams — to the generator profile that
// produced it. Run with -update to regenerate the file (shared with the
// golden Plan fixtures' flag).
func TestFlowsCaptureFixture(t *testing.T) {
	cfg, base := flowsCaptureConfig(), flowsCaptureBase()
	recs, err := ingest.Records(cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "flows.pcap")
	if *updatePlans {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := ingest.WritePcap(path, recs); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test . -run TestFlowsCaptureFixture -update)", err)
	}
	got, trunc, err := ingest.DecodePcap(data)
	if err != nil || trunc != 0 {
		t.Fatalf("decode: trunc=%d err=%v", trunc, err)
	}
	if len(got) != cfg.Packets || len(got) != len(recs) {
		t.Fatalf("capture holds %d packets, generator profile says %d", len(got), cfg.Packets)
	}
	for i := range recs {
		if !bytes.Equal(got[i].Data, recs[i].Data) {
			t.Fatalf("packet %d differs from the generator profile (fixture drifted; -update)", i)
		}
		// The capture's timestamps are whole microseconds of the modeled
		// arrival process; they must never run backwards.
		if i > 0 && got[i].Time.Before(got[i-1].Time) {
			t.Fatalf("timestamps run backwards at record %d", i)
		}
	}
}

// TestServeFlowsCaptureReplay streams the checked-in capture off the
// Source path through the deepest realization the repo serves — the IPv4
// PPS cut four ways, four shards taking whole batches in turn, every
// cut fused (FusionAuto's verdict: no stage keeps state) — and requires
// the served trace byte-identical to the sequential oracle over the decoded
// capture.
func TestServeFlowsCaptureReplay(t *testing.T) {
	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := repro.Partition(prog, repro.WithStages(4))
	if err != nil {
		t.Fatal(err)
	}
	src, err := repro.OpenSource("pcap://" + filepath.Join("testdata", "flows.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	tee := ingest.Tee(src) // the decoded capture, as the pipeline saw it
	m, err := pipe.Serve(context.Background(), nil, repro.WithSource(tee),
		repro.WithBatch(32), repro.WithShards(4), repro.WithShardKey(repro.FlowKey))
	if err != nil {
		t.Fatal(err)
	}
	if plan := pipe.Plan(); plan.Shards != 4 || len(plan.FusedCuts) != 3 {
		t.Fatalf("served %d shards with cuts %v fused, want 4 shards and all three cuts", plan.Shards, plan.FusedCuts)
	}
	pkts := tee.Captured()
	if want := flowsCaptureConfig().Packets; len(pkts) != want || m.Packets != int64(want) {
		t.Fatalf("decoded %d and served %d packets, capture holds %d", len(pkts), m.Packets, want)
	}
	if diff := repro.TraceEqual(seqTrace(t, prog, pkts, len(pkts)), m.Trace); diff != "" {
		t.Fatalf("replayed trace diverges from the oracle over the decoded capture: %s", diff)
	}
}

// handoverSource is a BatchSource over buffers the test keeps hold of: Pull
// hands them out in order (ownership transfers, as the contract says), and at
// the end of them either reports end of stream or, when block is set, waits
// for the context Pull runs under — a socket with nothing more to read.
type handoverSource struct {
	stats ingest.Stats
	pkts  [][]byte
	block bool
}

func (h *handoverSource) Pull(ctx context.Context, dst [][]byte) (int, error) {
	if len(h.pkts) == 0 {
		if !h.block {
			return 0, io.EOF
		}
		<-ctx.Done()
		return 0, ctx.Err()
	}
	n := copy(dst, h.pkts)
	h.pkts = h.pkts[n:]
	return n, nil
}
func (h *handoverSource) Stats() *ingest.Stats { return &h.stats }
func (h *handoverSource) Close() error         { return nil }

// TestAdaptiveServeAdoptsOwnedPackets: a batch source hands its packets
// over, and the head must adopt them — a PPS that rewrites each
// packet it forwards sends the source's own buffers, rewritten in place, and
// the Metrics carry the source's boundary counters. The name and the
// "static" case date from when Serve also had an adaptive path; the static
// serve is the only one left.
func TestAdaptiveServeAdoptsOwnedPackets(t *testing.T) {
	t.Run("static", func(t *testing.T) {
		prog := repro.MustCompile(`pps Rewrite { loop {
			var n = pkt_rx();
			if (n < 0) { continue; }
			pkt_setbyte(0, pkt_byte(0) ^ 0xFF);
			trace(pkt_byte(0));
			pkt_send(pkt_byte(1) & 1);
		} }`)
		const n = 1200
		seq := seqTrace(t, prog, testPackets(n), n)
		pipe, err := repro.Partition(prog, repro.WithStages(2))
		if err != nil {
			t.Fatal(err)
		}
		src := &handoverSource{pkts: testPackets(n)}
		own := make(map[*byte]bool, n)
		for _, p := range src.pkts {
			own[&p[0]] = true
		}
		m, err := pipe.Serve(context.Background(), nil, repro.WithSource(src))
		if err != nil {
			t.Fatal(err)
		}
		if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
			t.Fatalf("trace diverges from oracle: %s", diff)
		}
		sends := 0
		for _, ev := range m.Trace {
			if ev.Kind == interp.EvSend {
				sends++
				if !own[&ev.Pkt[0]] {
					t.Fatalf("send event %d carries a copy of a packet the source handed over", sends)
				}
			}
		}
		if sends != n {
			t.Errorf("%d packets forwarded, want %d", sends, n)
		}
		// Serve promises the source's boundary counters (handoverSource counts
		// nothing, so only presence shows).
		if m.Ingest == nil {
			t.Error("Metrics.Ingest is nil on a WithSource serve")
		}

	})
}

// TestServeTeardownUnblocksSource: a stage error tears the serve down
// through the engine's own context, and the source must be bound to that
// context to notice — here stage 2 fails (a non-terminating inner loop
// on the marked packet) while stage 1 sits in a Pull that has nothing more
// to return. Serve must come back with the stage's error, not hang until
// the caller gives up.
func TestServeTeardownUnblocksSource(t *testing.T) {
	prog := repro.MustCompile(`pps Trap { loop {
		var n = pkt_rx();
		if (n < 0) { continue; }
		var b0 = pkt_byte(0);
		var hop = rt_lookup(hash_crc(b0 * 31 + n) & 0xFF);
		var i = 0;
		if (b0 == 255) { while (1) { i = i + 1; } }
		trace((hop + i) & 0xFF);
		pkt_send(hop & 1);
	} }`)
	pipe, err := repro.Partition(prog, repro.WithStages(2), repro.WithFusion(repro.FusionOff))
	if err != nil {
		t.Fatal(err)
	}
	src := &handoverSource{pkts: [][]byte{{1, 0, 0}, {2, 0, 0}, {255, 0, 0}}, block: true}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := pipe.Serve(ctx, nil, repro.WithSource(src))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "stage 2") || !strings.Contains(err.Error(), "step limit") {
			t.Fatalf("Serve returned %v, want stage 2's step-limit error", err)
		}
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatalf("Serve still blocked in the source 10s after stage 2 failed (after cancel: %v)", <-done)
	}
}

// outcomeSink counts the send and drop events pushed to it: one per IPv4
// packet served.
type outcomeSink struct{ n atomic.Int64 }

func (s *outcomeSink) Push(_ context.Context, evs []repro.Event) error {
	for _, ev := range evs {
		if ev.Kind == interp.EvSend || ev.Kind == interp.EvDrop {
			s.n.Add(1)
		}
	}
	return nil
}

func (s *outcomeSink) Close() (int64, error) { return s.n.Load(), nil }

// TestServeQuietSocketStrandsNoPacket serves IPv4 off a live socket that
// carries five packets and then goes quiet: all five must reach the sink
// within 300 ms, before the cancel that ends the serve. A batch closes when
// the socket has nothing more ready, never only when it is full, so no shape
// — degree, shards, batch or fusion — may hold a partly filled batch back.
func TestServeQuietSocketStrandsNoPacket(t *testing.T) {
	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	traffic := pps.Traffic(5)
	if seq := seqTrace(t, prog, traffic, len(traffic)); countOutcomes(seq) != len(traffic) {
		t.Fatalf("the oracle gives %d sends and drops for %d packets", countOutcomes(seq), len(traffic))
	}
	type shape struct {
		tcp         bool
		d, p, batch int
		fusion      repro.FusionMode
	}
	var shapes []shape
	for _, d := range []int{1, 2} {
		for _, p := range []int{1, 2} {
			for _, batch := range []int{8, 32} {
				for _, f := range []repro.FusionMode{repro.FusionOff, repro.FusionAuto} {
					shapes = append(shapes, shape{false, d, p, batch, f})
				}
			}
		}
	}
	shapes = append(shapes, shape{true, 2, 2, 32, repro.FusionAuto})
	for _, sh := range shapes {
		proto := "udp"
		if sh.tcp {
			proto = "tcp"
		}
		fusion := map[repro.FusionMode]string{repro.FusionOff: "off", repro.FusionAuto: "auto"}[sh.fusion]
		t.Run(fmt.Sprintf("%s/D=%d/P=%d/batch=%d/fusion=%s", proto, sh.d, sh.p, sh.batch, fusion), func(t *testing.T) {
			pipe, err := repro.Partition(prog, repro.WithStages(sh.d))
			if err != nil {
				t.Fatal(err)
			}
			var src repro.BatchSource
			var addr net.Addr
			if sh.tcp {
				s, err := ingest.OpenTCP("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				src, addr = s, s.LocalAddr()
			} else {
				s, err := ingest.OpenUDP("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				src, addr = s, s.LocalAddr()
			}
			defer src.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sink := &outcomeSink{}
			done := make(chan error, 1)
			go func() {
				_, err := pipe.Serve(ctx, nil, repro.WithSource(src), repro.WithWorld(netbench.NewWorld(nil)),
					repro.WithShards(sh.p), repro.WithBatch(sh.batch),
					repro.WithFusion(sh.fusion), repro.WithSink(sink))
				done <- err
			}()
			// The connection stays open, and quiet, until the check is made.
			conn, err := net.Dial(proto, addr.String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			for _, p := range traffic {
				if sh.tcp {
					p = append([]byte{byte(len(p) >> 8), byte(len(p))}, p...)
				}
				if _, err := conn.Write(p); err != nil {
					t.Fatal(err)
				}
			}
			want := int64(len(traffic))
			deadline := time.Now().Add(300 * time.Millisecond)
			for sink.n.Load() < want && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			got := sink.n.Load()
			cancel()
			if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("Serve: %v", err)
			}
			if got != want {
				t.Errorf("%d of %d packets stranded after 300 ms of a quiet %s socket", want-got, want, proto)
			}
		})
	}
}

func countOutcomes(evs []repro.Event) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == interp.EvSend || ev.Kind == interp.EvDrop {
			n++
		}
	}
	return n
}
