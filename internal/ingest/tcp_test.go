package ingest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/netbench"
)

// framesOf runs the TCP source's frame reader over one byte stream, with a
// queue deep enough never to fill (a batch holds a frame and a frame is at
// least three bytes), and returns what it yielded and how many decode
// errors it counted. No goroutine and no Pull: the fuzzer steers by
// coverage, which has to be a function of the input alone.
func framesOf(r io.Reader, streamLen int) (frames [][]byte, decodeErrors int64) {
	src := newTCPSource(nil)
	src.batches = make(chan [][]byte, streamLen/3+1)
	src.readFrames(r)
	close(src.batches)
	for batch := range src.batches {
		frames = append(frames, batch...)
	}
	return frames, src.Stats().View().DecodeErrors
}

// randReader delivers its stream in reads of seeded random length, most of
// them short, some as long as the caller's buffer.
type randReader struct {
	data []byte
	rng  *rand.Rand
}

func (r *randReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := 1 + r.rng.Intn(64)
	if r.rng.Intn(8) == 0 {
		n = 1 + r.rng.Intn(len(p))
	}
	n = copy(p[:min(n, len(p))], r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestTCPFramerSplitReads: where the reads fall is the transport's business,
// not the stream's. A stream spanning several chunks — runs of minimum-size
// frames, odd sizes, and the largest legal frame placed so that headers and
// bodies straddle both reads and chunk boundaries — yields the same frames
// delivered whole, one byte at a time, and cut at seeded random points.
func TestTCPFramerSplitReads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var want [][]byte
	add := func(size int) {
		p := make([]byte, size)
		rng.Read(p)
		want = append(want, p)
	}
	for i := 0; i < 2000; i++ {
		add(48)
	}
	add(maxTCPFrame) // crosses the first chunk's end
	for i := 0; i < 300; i++ {
		add(1 + rng.Intn(700))
	}
	add(maxTCPFrame)
	add(1)
	add(maxTCPFrame)
	var wire []byte
	for _, p := range want {
		wire = append(wire, frame(p)...)
	}
	if len(wire) < 2*tcpChunk {
		t.Fatalf("stream of %d bytes does not span three chunks of %d", len(wire), tcpChunk)
	}

	readers := map[string]io.Reader{
		"whole":    bytes.NewReader(wire),
		"one byte": iotest.OneByteReader(bytes.NewReader(wire)),
	}
	for seed := int64(1); seed <= 3; seed++ {
		readers["random "+string(rune('0'+seed))] = &randReader{data: wire, rng: rand.New(rand.NewSource(seed))}
	}
	for name, r := range readers {
		got, decodeErrors := framesOf(r, len(wire))
		if decodeErrors != 0 {
			t.Errorf("%s: %d decode errors on a well-formed stream", name, decodeErrors)
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d frames, want %d", name, len(got), len(want))
			continue
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: frame %d (%d bytes) differs", name, i, len(want[i]))
				break
			}
			if cap(got[i]) != len(got[i]) {
				t.Errorf("%s: frame %d has %d bytes and capacity %d", name, i, len(got[i]), cap(got[i]))
				break
			}
		}
	}
}

// pullN pulls until want packets have arrived or five seconds have passed.
func pullN(t *testing.T, src Source, want, batch int) [][]byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var got [][]byte
	dst := make([][]byte, batch)
	for len(got) < want {
		n, err := src.Pull(ctx, dst[:min(batch, want-len(got))])
		if err != nil {
			t.Fatalf("after %d of %d packets: %v", len(got), want, err)
		}
		got = append(got, dst[:n]...)
	}
	return got
}

// TestTCPTwoConnections: two peers writing at once share the queue; each
// connection's frames come out in the order it sent them and none is lost.
func TestTCPTwoConnections(t *testing.T) {
	src, err := OpenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	const perConn = 5000
	sent := make(chan error, 2)
	for id := byte(0); id < 2; id++ {
		go func() {
			conn, err := net.Dial("tcp", src.LocalAddr().String())
			if err != nil {
				sent <- err
				return
			}
			defer conn.Close()
			w := bufio.NewWriterSize(conn, 3000) // flushes cut frames at odd places
			for seq := uint32(0); seq < perConn; seq++ {
				p := make([]byte, 5+int(seq%90))
				p[0] = id
				binary.BigEndian.PutUint32(p[1:], seq)
				w.Write(frame(p)) // a bufio.Writer's error is sticky: Flush reports it
			}
			sent <- w.Flush()
		}()
	}
	next := [2]uint32{}
	for _, p := range pullN(t, src, 2*perConn, 32) {
		id, seq := p[0], binary.BigEndian.Uint32(p[1:])
		if seq != next[id] || len(p) != 5+int(seq%90) {
			t.Fatalf("connection %d: got frame %d (%d bytes), want frame %d", id, seq, len(p), next[id])
		}
		next[id]++
	}
	for i := 0; i < 2; i++ {
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	}
	if v := src.Stats().View(); v.RxPackets != 2*perConn || v.DecodeErrors != 0 {
		t.Errorf("stats %+v, want %d packets and no decode error", v, 2*perConn)
	}
}

// TestTCPBackpressure: a peer writing into a source nobody pulls from is
// stopped by TCP flow control after a bounded number of frames — the queue,
// a reader's chunk and what the kernel's two socket buffers hold — and
// writes the rest once Pull drains the queue.
func TestTCPBackpressure(t *testing.T) {
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

	const size, total = 8 << 10, 6000 // 48 MB offered: far past anything that buffers
	p := make([]byte, size)
	wire := frame(p)
	// The kernel's share is bounded generously: Linux lets a loopback
	// socket pair hold a few megabytes.
	const kernelBytes = 16 << 20
	bound := tcpBatch*(tcpQueueDepth+1) + tcpChunk/size + 1 + kernelBytes/size
	if bound >= total {
		t.Fatalf("bound %d does not separate a blocked peer from one that wrote all %d frames", bound, total)
	}

	// Phase one: write until a write makes no progress for 300 ms.
	written, off := 0, 0 // whole frames on the wire; bytes of the next one
	for written < total {
		conn.SetWriteDeadline(time.Now().Add(300 * time.Millisecond))
		n, err := conn.Write(wire[off:])
		off += n
		if off == len(wire) {
			written, off = written+1, 0
		}
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal(err)
			}
			break
		}
	}
	if written > bound {
		t.Fatalf("peer wrote %d frames of %d bytes into a source nobody pulls from; the bound is %d", written, size, bound)
	}
	t.Logf("peer blocked after %d frames (bound %d)", written, bound)

	// Phase two: the pipeline pulls, the peer resumes and finishes.
	conn.SetWriteDeadline(time.Time{})
	sent := make(chan error, 1)
	go func() {
		_, err := conn.Write(wire[off:])
		for i := written + 1; i < total && err == nil; i++ {
			_, err = conn.Write(wire)
		}
		sent <- err
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dst := make([][]byte, 32)
	for got := 0; got < total; {
		n, err := src.Pull(ctx, dst)
		if err != nil {
			t.Fatalf("after %d of %d frames: %v", got, total, err)
		}
		for _, f := range dst[:n] {
			if len(f) != size {
				t.Fatalf("frame %d has %d bytes, want %d", got, len(f), size)
			}
		}
		got += n
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestTCPCloseMidFrame: a frame cut short because the source itself closed
// is not the peer's fault and counts no decode error; the same cut made by
// the peer counts one.
func TestTCPCloseMidFrame(t *testing.T) {
	whole := netbench.IPv4Stream(1)[0]
	cut := append(frame(whole), frame(whole)[:20]...) // one frame, then a header and part of a body
	for _, tc := range []struct {
		name     string
		peerCuts bool
		want     int64
	}{{"source closes", false, 0}, {"peer closes", true, 1}} {
		t.Run(tc.name, func(t *testing.T) {
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
			if _, err := conn.Write(cut); err != nil {
				t.Fatal(err)
			}
			// The whole frame arriving means the reader has the cut one's
			// bytes too, or will have read them by the time it sees the close.
			if got := pullN(t, src, 1, 4); !bytes.Equal(got[0], whole) {
				t.Fatal("first frame differs")
			}
			if tc.peerCuts {
				conn.Close()
			} else {
				src.Close()
			}
			deadline := time.Now().Add(5 * time.Second)
			for live := 1; live > 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				src.mu.Lock()
				live = len(src.conns)
				src.mu.Unlock()
			}
			if got := src.Stats().View().DecodeErrors; got != tc.want {
				t.Errorf("%d decode errors, want %d", got, tc.want)
			}
		})
	}
}

// TestTCPPacketsDoNotOverlap: packets are sub-slices of one chunk, so the
// ownership Pull transfers has to hold byte for byte — appending to a
// packet reallocates it and rewriting one in place leaves its neighbours'
// bytes (and the length header between them) alone.
func TestTCPPacketsDoNotOverlap(t *testing.T) {
	want := netbench.IPv4Stream(3)
	var wire []byte
	for _, p := range want {
		wire = append(wire, frame(p)...)
	}
	got, _ := framesOf(bytes.NewReader(wire), len(wire))
	if len(got) != 3 {
		t.Fatalf("%d frames, want 3", len(got))
	}
	mid := got[1]
	if cap(mid) != len(mid) {
		t.Fatalf("packet of %d bytes has capacity %d", len(mid), cap(mid))
	}
	for i := range mid {
		mid[i] = 0xEE
	}
	grown := append(mid, 0xEE, 0xEE, 0xEE, 0xEE)
	if &grown[0] == &mid[0] {
		t.Error("append grew the packet in place, into the next frame")
	}
	if !bytes.Equal(got[0], want[0]) || !bytes.Equal(got[2], want[2]) {
		t.Error("rewriting a packet changed its neighbour")
	}
}

// BenchmarkTCPPull is the source→null floor of the ingest row in the
// layer ledger: one loopback sender writing minimum-size frames through a
// 64 KiB buffered writer (the benchmark harness's load generator), Pull
// into 32 slots, packets discarded. One op is one packet, so ns/op is
// ns/pkt and B/op is B/pkt.
func BenchmarkTCPPull(b *testing.B) {
	src, err := OpenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	cyc := netbench.IPv4Stream(4096)
	sent := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", src.LocalAddr().String())
		if err != nil {
			sent <- err
			return
		}
		defer conn.Close()
		w := bufio.NewWriterSize(conn, 64<<10)
		var hdr [2]byte
		for i := 0; i < b.N; i++ {
			p := cyc[i%len(cyc)]
			binary.BigEndian.PutUint16(hdr[:], uint16(len(p)))
			w.Write(hdr[:]) // a bufio.Writer's error is sticky: Flush reports it
			w.Write(p)
		}
		sent <- w.Flush()
	}()
	dst := make([][]byte, 32)
	b.ReportAllocs()
	b.SetBytes(int64(len(cyc[0])))
	b.ResetTimer()
	for got := 0; got < b.N; {
		n, err := src.Pull(context.Background(), dst[:min(len(dst), b.N-got)])
		if err != nil {
			b.Fatalf("after %d of %d packets: %v", got, b.N, err)
		}
		got += n
	}
	b.StopTimer()
	if err := <-sent; err != nil {
		b.Fatal(err)
	}
}
