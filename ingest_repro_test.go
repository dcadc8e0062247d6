package repro_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro"
	"repro/internal/ingest"
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
// PPS cut four ways, four shards behind the flow-hash dispatcher, every
// cut fused (the valuator's verdict at one core, pinned so the shape does
// not depend on the host) — and requires the served trace byte-identical
// to the sequential oracle over the decoded capture.
func TestServeFlowsCaptureReplay(t *testing.T) {
	defer repro.SetFusionCoresForTest(1)()
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
