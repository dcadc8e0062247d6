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

// tcpQueueDepth bounds the shared frame queue between connection readers
// and Pull. When it fills, readers stop reading and TCP flow control
// pushes back on the peers — the source itself never drops.
const tcpQueueDepth = 1024

// TCPSource accepts connections on a listening socket and reads
// length-framed packets from each: a 2-byte big-endian payload length,
// then the payload. Frames from all connections funnel into one bounded
// queue that Pull drains; when the pipeline stops pulling the queue
// fills, readers park, and backpressure reaches the peers through TCP
// flow control. A zero-length frame or one claiming more than 64 KiB is
// a decode error and closes that connection.
type TCPSource struct {
	ln     net.Listener
	frames chan []byte
	done   chan struct{}
	stats  Stats

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
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
	t := &TCPSource{
		ln:     ln,
		frames: make(chan []byte, tcpQueueDepth),
		done:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
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
	var hdr [2]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err != io.EOF && !t.isClosed() {
				t.stats.decodeErrors.Add(1) // mid-header cut: truncated frame
			}
			return
		}
		size := int(binary.BigEndian.Uint16(hdr[:]))
		if size == 0 || size > maxTCPFrame {
			t.stats.decodeErrors.Add(1)
			return
		}
		buf := make([]byte, size)
		if _, err := io.ReadFull(r, buf); err != nil {
			if !t.isClosed() {
				t.stats.decodeErrors.Add(1)
			}
			return
		}
		// Parking here when the queue is full is the backpressure path:
		// this goroutine stops consuming its socket and TCP flow control
		// reaches the peer.
		select {
		case t.frames <- buf:
		case <-t.done:
			return
		}
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
	if len(dst) == 0 {
		return 0, nil
	}
	n := 0
	select {
	case buf := <-t.frames:
		dst[0] = buf
		t.stats.countRx(len(buf))
		n = 1
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-t.done:
		// Closed: hand over any residue before signalling EOF.
		select {
		case buf := <-t.frames:
			dst[0] = buf
			t.stats.countRx(len(buf))
			n = 1
		default:
			return 0, io.EOF
		}
	}
	for n < len(dst) {
		select {
		case buf := <-t.frames:
			dst[n] = buf
			t.stats.countRx(len(buf))
			n++
		default:
			return n, nil
		}
	}
	return n, nil
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
