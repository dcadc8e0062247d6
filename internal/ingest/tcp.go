package ingest

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/errs"
)

// maxTCPFrame caps the length prefix a TCP peer may claim; larger values
// are decode errors and kill the connection (a desynced stream never
// recovers).
const maxTCPFrame = 65535

// A connection reader frames in place: it reads into a chunk, hands every
// complete frame out as a sub-slice of it, and starts the next chunk (the
// cut tail frame copied to its head) when this one has no room for the
// frame in progress or for a read worth a syscall (1/tcpMinReadDiv of it).
// Chunks double from tcpFirstChunk, so an idle connection holds 4 KiB, up
// to tcpChunk, where a stream of minimum-size packets costs one allocation
// per ~2600 of them; tcpChunk must hold the largest frame behind its header.
const (
	tcpFirstChunk = 4 << 10
	tcpChunk      = 128 << 10
	tcpMinReadDiv = 32
)

// Frames cross from the readers to Pull in batches of up to tcpBatch, and
// tcpQueueDepth batches may wait: 1024 frames, the bound the queue had when
// it held single frames. When it fills, readers stop reading and TCP flow
// control pushes back on the peers — the source itself never drops.
const (
	tcpBatch      = 64
	tcpQueueDepth = 16
)

// TCPSource accepts connections on a listening socket and reads
// length-framed packets from each: a 2-byte big-endian payload length,
// then the payload. Frames from all connections funnel into one bounded
// queue that Pull drains; when the pipeline stops pulling the queue
// fills, readers park, and backpressure reaches the peers through TCP
// flow control. A zero-length frame or one claiming more than 64 KiB is
// a decode error and closes that connection.
//
// Packets of one connection are sub-slices of that connection's read
// chunks, each with its capacity cut to its length: appending to one
// reallocates and rewriting one in place touches no neighbour, but a
// packet the caller retains keeps its whole chunk (up to tcpChunk bytes)
// reachable.
type TCPSource struct {
	ln      net.Listener
	batches chan [][]byte
	free    chan [][]byte // emptied batches on their way back to the readers
	done    chan struct{}
	stats   Stats

	// held[at:] is what Pull has not yet handed out of the batch it took
	// last. Pull is single-consumer, so neither needs a lock.
	held [][]byte
	at   int

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// newTCPSource builds the queue side of a source.
func newTCPSource(ln net.Listener) *TCPSource {
	return &TCPSource{
		ln:      ln,
		batches: make(chan [][]byte, tcpQueueDepth),
		free:    make(chan [][]byte, tcpQueueDepth+2), // every queued batch, the one Pull holds, one to spare
		done:    make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
}

// OpenTCP listens on addr and starts accepting framed connections. A
// malformed address wraps errs.ErrBadSource.
func OpenTCP(addr string) (*TCPSource, error) {
	ta, err := net.ResolveTCPAddr("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: tcp://%s: %v", errs.ErrBadSource, addr, err)
	}
	ln, err := net.ListenTCP("tcp", ta)
	if err != nil {
		return nil, fmt.Errorf("tcp://%s: %w", addr, err)
	}
	t := newTCPSource(ln)
	go t.acceptLoop()
	return t, nil
}

// LocalAddr returns the bound address (useful when listening on port 0).
func (t *TCPSource) LocalAddr() net.Addr { return t.ln.Addr() }

func (t *TCPSource) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		go t.readConn(conn)
	}
}

func (t *TCPSource) readConn(conn net.Conn) {
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	t.readFrames(conn)
}

// readFrames queues the length-prefixed frames of one byte stream until it
// ends, the source closes, or the stream is malformed — a zero or oversized
// length, or a cut inside a header or a body — which counts one decode
// error (a desynced stream never recovers, so the caller drops it). A cut
// caused by Close itself is not the peer's fault and is not counted.
func (t *TCPSource) readFrames(r io.Reader) {
	chunk, batch := make([]byte, tcpFirstChunk), t.newBatch()
	lo, hi := 0, 0 // chunk[lo:hi] is read and not yet framed
	// flush queues the frames on hand for Pull and reports false when the
	// source closed first. Parking here when the queue is full is the
	// backpressure path: this goroutine stops consuming its socket and TCP
	// flow control reaches the peer.
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		select {
		case t.batches <- batch:
			batch = t.newBatch()
			return true
		case <-t.done:
			return false
		}
	}
	for {
		n, err := r.Read(chunk[hi:])
		hi += n
		need := 2 // bytes the frame at lo takes, as far as they are known
		for hi-lo >= 2 {
			size := int(binary.BigEndian.Uint16(chunk[lo:]))
			if size == 0 || size > maxTCPFrame {
				flush()
				t.stats.decodeErrors.Add(1)
				return
			}
			if need = 2 + size; hi-lo < need {
				break
			}
			batch = append(batch, chunk[lo+2:lo+need:lo+need])
			lo, need = lo+need, 2
			if len(batch) == cap(batch) && !flush() {
				return
			}
		}
		if !flush() {
			return
		}
		if err != nil {
			if (err != io.EOF || hi > lo) && !t.isClosed() {
				t.stats.decodeErrors.Add(1) // cut inside a header or a body
			}
			return
		}
		if lo+need > len(chunk) || len(chunk)-hi < len(chunk)/tcpMinReadDiv {
			next := make([]byte, min(max(2*len(chunk), need), tcpChunk))
			lo, hi, chunk = 0, copy(next, chunk[lo:hi]), next
		}
	}
}

// newBatch returns an empty batch, recycled when Pull has returned one.
func (t *TCPSource) newBatch() [][]byte {
	select {
	case b := <-t.free:
		return b
	default:
		return make([][]byte, 0, tcpBatch)
	}
}

func (t *TCPSource) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// Pull blocks until at least one frame is queued, then drains whatever
// else is immediately ready.
func (t *TCPSource) Pull(ctx context.Context, dst [][]byte) (int, error) {
	n := 0
	for n < len(dst) {
		if t.at == len(t.held) {
			b, err := t.next(ctx, n == 0)
			if err != nil {
				return 0, err
			}
			if b == nil {
				break
			}
			t.held, t.at = b, 0
		}
		k := copy(dst[n:], t.held[t.at:])
		t.at, n = t.at+k, n+k
	}
	t.stats.countRxBatch(dst[:n])
	return n, nil
}

// next takes the next queued batch, handing the one Pull has emptied back
// to the readers (cleared, so the free list pins no chunk). With wait it
// blocks for one — until ctx ends, or the source closes with nothing left
// queued (io.EOF); without, it returns nil, nil when none is ready.
func (t *TCPSource) next(ctx context.Context, wait bool) ([][]byte, error) {
	if cap(t.held) > 0 {
		clear(t.held)
		select {
		case t.free <- t.held[:0]:
		default:
		}
		t.held, t.at = nil, 0
	}
	if !wait {
		select {
		case b := <-t.batches:
			return b, nil
		default:
			return nil, nil
		}
	}
	select {
	case b := <-t.batches:
		return b, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-t.done:
		// Closed: hand over any residue before signalling EOF.
		select {
		case b := <-t.batches:
			return b, nil
		default:
			return nil, io.EOF
		}
	}
}

// Stats returns the source's boundary counters.
func (t *TCPSource) Stats() *Stats { return &t.stats }

// Close stops accepting, tears down live connections, and unblocks Pull
// (which returns io.EOF once the queue is drained).
func (t *TCPSource) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for conn := range t.conns {
		conn.Close()
	}
	t.mu.Unlock()
	close(t.done)
	return t.ln.Close()
}
