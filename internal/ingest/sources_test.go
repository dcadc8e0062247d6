package ingest

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/netbench"
)

// TestUDPRoundTrip: datagrams sent to a loopback UDP source come out of
// Pull in arrival order with counters matching; a runt datagram is
// rejected as a decode error.
func TestUDPRoundTrip(t *testing.T) {
	src, err := OpenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	conn, err := net.Dial("udp", src.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	want := netbench.IPv4Stream(20)
	for _, p := range want {
		if _, err := conn.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write([]byte{0xFF}); err != nil { // runt frame
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var got [][]byte
	dst := make([][]byte, 8)
	for len(got) < len(want) {
		n, err := src.Pull(ctx, dst)
		if err != nil {
			t.Fatalf("after %d packets: %v", len(got), err)
		}
		got = append(got, dst[:n]...)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("packet %d differs", i)
		}
	}
	// The runt is only seen (and rejected) by a Pull that reads it: run
	// one more Pull under a short deadline — it consumes the runt,
	// counts the decode error, finds nothing else, and times out.
	runtCtx, runtCancel := context.WithTimeout(context.Background(), time.Second)
	defer runtCancel()
	src.Pull(runtCtx, dst)
	v := src.Stats().View()
	if v.RxPackets != int64(len(want)) {
		t.Errorf("rx packets %d, want %d", v.RxPackets, len(want))
	}
	if v.DecodeErrors != 1 {
		t.Errorf("decode errors %d, want 1", v.DecodeErrors)
	}
}

// TestUDPPullCancel: a Pull blocked on an idle socket must return when
// its context is canceled, within the polling interval.
func TestUDPPullCancel(t *testing.T) {
	src, err := OpenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := src.Pull(ctx, make([][]byte, 4))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pull did not observe cancelation")
	}
}

// TestUDPCloseEOF: closing the source unblocks a pending Pull with a
// clean EOF.
func TestUDPCloseEOF(t *testing.T) {
	src, err := OpenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := src.Pull(context.Background(), make([][]byte, 4))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	src.Close()
	select {
	case err := <-done:
		if err != io.EOF {
			t.Fatalf("got %v, want io.EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pull did not observe Close")
	}
}

// frame wraps a payload in the TCP source's 2-byte big-endian length
// framing.
func frame(p []byte) []byte {
	out := make([]byte, 2+len(p))
	binary.BigEndian.PutUint16(out, uint16(len(p)))
	copy(out[2:], p)
	return out
}

// TestTCPRoundTrip: length-framed packets from one connection come out
// of Pull intact; a frame claiming an oversized length is a decode error
// that kills the connection.
func TestTCPRoundTrip(t *testing.T) {
	src, err := OpenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	conn, err := net.Dial("tcp", src.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	want := netbench.IPv4Stream(50)
	var wire []byte
	for _, p := range want {
		wire = append(wire, frame(p)...)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var got [][]byte
	dst := make([][]byte, 16)
	for len(got) < len(want) {
		n, err := src.Pull(ctx, dst)
		if err != nil {
			t.Fatalf("after %d packets: %v", len(got), err)
		}
		got = append(got, dst[:n]...)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("packet %d differs", i)
		}
	}
	if v := src.Stats().View(); v.RxPackets != int64(len(want)) {
		t.Errorf("rx packets %d, want %d", v.RxPackets, len(want))
	}

	// A zero-length frame is a framing violation: the reader drops the
	// connection and counts a decode error.
	bad, err := net.Dial("tcp", src.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for src.Stats().View().DecodeErrors == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if v := src.Stats().View(); v.DecodeErrors != 1 {
		t.Errorf("decode errors %d, want 1", v.DecodeErrors)
	}
}

// TestTCPCloseEOF: Close unblocks a waiting Pull with EOF.
func TestTCPCloseEOF(t *testing.T) {
	src, err := OpenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := src.Pull(context.Background(), make([][]byte, 4))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	src.Close()
	select {
	case err := <-done:
		if err != io.EOF {
			t.Fatalf("got %v, want io.EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pull did not observe Close")
	}
}

// TestOpenSpecs covers the spec parser: every accepted scheme builds a
// working source, and each malformed spec maps to ErrBadSource.
func TestOpenSpecs(t *testing.T) {
	good := []string{
		"udp://127.0.0.1:0",
		"tcp://127.0.0.1:0",
		"pcap://testdata/be_usec.pcap?pace=0&loop=2",
		"gen://ipv4?seed=7&packets=100&flows=8&alpha=1.2&peak=50000",
		"gen://ipv4",
	}
	for _, spec := range good {
		src, err := Open(spec)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		src.Close()
	}
	bad := []string{
		"no-scheme",
		"ftp://host:1",
		"udp://not a real address::",
		"pcap://testdata/decode.golden",
		"pcap://testdata/be_usec.pcap?pace=-1",
		"pcap://testdata/be_usec.pcap?loop=x",
		"gen://ipv6",
		"gen://ipv4?alpha=zero",
		"gen://ipv4?seed=1.5",
		"gen://ipv4?paced=maybe",
	}
	for _, spec := range bad {
		src, err := Open(spec)
		if err == nil {
			src.Close()
			t.Errorf("%s: accepted", spec)
			continue
		}
		if !errors.Is(err, errs.ErrBadSource) {
			// A pcap open may fail with an I/O error instead; only spec
			// shape errors must be ErrBadSource.
			if spec != "pcap://testdata/decode.golden" {
				t.Errorf("%s: error %v is not ErrBadSource", spec, err)
			}
		}
	}
	// A missing pcap file is an I/O error, not a spec error.
	if _, err := Open("pcap://testdata/missing.pcap"); err == nil {
		t.Error("missing pcap accepted")
	}
}

// TestLimitAndTee: Limit caps delivery with a clean EOF; Tee captures
// exactly the delivered packets.
func TestLimitAndTee(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Packets = 500
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tee := Tee(Limit(g, 123))
	got := drain(t, tee, 10)
	if len(got) != 123 {
		t.Fatalf("limit delivered %d packets, want 123", len(got))
	}
	cap := tee.Captured()
	if len(cap) != len(got) {
		t.Fatalf("captured %d, delivered %d", len(cap), len(got))
	}
	for i := range got {
		if !bytes.Equal(cap[i], got[i]) {
			t.Fatalf("capture %d differs from delivery", i)
		}
	}
}

// TestFeeder: the feeder flattens pulled batches into per-packet Next
// calls, ends cleanly at EOF, and reports I/O errors through Err.
func TestFeeder(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Packets = 200
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFeeder(g, 32)
	n := 0
	for {
		if _, ok := f.Next(); !ok {
			break
		}
		n++
	}
	if n != cfg.Packets {
		t.Fatalf("feeder delivered %d packets, want %d", n, cfg.Packets)
	}
	if f.Err() != nil {
		t.Fatalf("clean EOF reported as error: %v", f.Err())
	}

	boom := errors.New("socket exploded")
	ef := NewFeeder(&errSource{err: boom}, 4)
	if _, ok := ef.Next(); ok {
		t.Fatal("dead source delivered a packet")
	}
	if !errors.Is(ef.Err(), boom) {
		t.Fatalf("Err() = %v, want %v", ef.Err(), boom)
	}
}

type errSource struct {
	stats Stats
	err   error
}

func (e *errSource) Pull(context.Context, [][]byte) (int, error) { return 0, e.err }
func (e *errSource) Stats() *Stats                               { return &e.stats }
func (e *errSource) Close() error                                { return nil }
