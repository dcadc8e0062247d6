package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/errs"
	"repro/internal/netbench"
)

// udpPollInterval bounds how long a Pull can sit in a blocking read
// before re-checking its context. Socket reads have no native
// cancelation, so the source reads under a rolling deadline; 50ms keeps
// cancel latency invisible to an operator without measurable syscall
// overhead at packet rates that matter.
const udpPollInterval = 50 * time.Millisecond

// maxDatagram is the largest UDP payload the source accepts; it covers
// any non-jumbo packet with room to spare.
const maxDatagram = 9216

// udpChunk is the buffer datagrams are received into, one behind the
// other; a new one starts when less than maxDatagram is left.
const udpChunk = 64 << 10

// UDPSource receives one packet per datagram from a bound UDP socket.
// Datagrams shorter than a POS frame header are counted as decode errors
// and dropped at the boundary; everything else enters the pipeline
// as-is. When the pipeline stops pulling (first ring full), the socket
// stops being drained and the kernel receive buffer absorbs — then drops —
// the excess; on Linux those drops are counted in Stats.Drops (see rxq).
//
// Packets are sub-slices of shared receive chunks, each with its capacity
// cut to its length: a packet the caller retains keeps its chunk (udpChunk
// bytes, shared with the packets received around it) reachable.
type UDPSource struct {
	conn   *net.UDPConn
	raw    syscall.RawConn
	stats  Stats
	closed atomic.Bool

	// Pull-side state; Pull is single-consumer.
	chunk []byte // chunk[used:] is free
	used  int
	rx    rxq
}

// OpenUDP binds addr (":9000", "127.0.0.1:9000") and returns a listening
// source. A malformed address wraps errs.ErrBadSource.
func OpenUDP(addr string) (*UDPSource, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: udp://%s: %v", errs.ErrBadSource, addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("udp://%s: %w", addr, err)
	}
	raw, err := conn.SyscallConn()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("udp://%s: %w", addr, err)
	}
	u := &UDPSource{conn: conn, raw: raw}
	if err := u.rx.init(raw, &u.stats); err != nil {
		conn.Close()
		return nil, fmt.Errorf("udp://%s: %w", addr, err)
	}
	return u, nil
}

// LocalAddr returns the bound address (useful when listening on port 0).
func (u *UDPSource) LocalAddr() net.Addr { return u.conn.LocalAddr() }

// Pull blocks until at least one datagram arrives, then drains whatever
// else is already queued without blocking (a non-blocking read where the
// platform has one — see rxq — else nothing), one packet per dst slot.
func (u *UDPSource) Pull(ctx context.Context, dst [][]byte) (int, error) {
	n, armed := 0, false
	for n < len(dst) {
		if len(u.chunk)-u.used < maxDatagram {
			u.chunk, u.used = make([]byte, udpChunk), 0
		}
		buf := u.chunk[u.used : u.used+maxDatagram]
		var sz int
		if n > 0 {
			// Already have packets: only take what is immediately ready.
			var ok bool
			if sz, ok = u.rx.poll(u.raw, buf); !ok {
				break
			}
		} else {
			// Block for the first packet, but wake often enough to honor
			// cancelation: one deadline per wait, not per datagram.
			if !armed {
				if err := u.conn.SetReadDeadline(time.Now().Add(udpPollInterval)); err != nil {
					return 0, err
				}
				armed = true
			}
			var err error
			if sz, err = u.rx.wait(u.conn, buf); err != nil {
				if ctx.Err() != nil {
					return 0, ctx.Err()
				}
				if errors.Is(err, os.ErrDeadlineExceeded) {
					armed = false
					continue
				}
				if u.closed.Load() {
					// Close mid-serve is a clean shutdown, not an I/O failure.
					return 0, io.EOF
				}
				return 0, err
			}
		}
		if sz < netbench.FrameHdrLen {
			u.stats.decodeErrors.Add(1)
			continue
		}
		dst[n] = buf[:sz:sz]
		u.used += sz
		n++
	}
	u.stats.countRxBatch(dst[:n])
	return n, nil
}

// Stats returns the source's boundary counters.
func (u *UDPSource) Stats() *Stats { return &u.stats }

// Close closes the socket; a Pull blocked in a read returns promptly.
func (u *UDPSource) Close() error {
	u.closed.Store(true)
	return u.conn.Close()
}
