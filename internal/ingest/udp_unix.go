//go:build unix && (!linux || 386)

package ingest

import (
	"net"
	"syscall"
)

// rxq is UDPSource's receive path on Unix other than Linux, and on
// linux/386, whose recvmsg goes through socketcall. Kernel receive-queue
// drops are not reported here: Stats.Drops stays 0. The non-blocking read is
// a plain read(2) on the descriptor: Go opens sockets non-blocking, so it
// returns one queued datagram or EAGAIN, never waiting.
// (A read deadline already in the past does not do this — Go fails such a
// read before the system call.) The callback is built once and works on the
// fields: a closure per call would be an allocation per datagram.
type rxq struct {
	buf []byte
	n   int
	err error
	fn  func(fd uintptr) bool
}

func (*rxq) init(syscall.RawConn, *Stats) error { return nil }

// wait is the blocking read, under the caller's deadline.
func (*rxq) wait(conn *net.UDPConn, buf []byte) (int, error) { return conn.Read(buf) }

// poll receives one datagram into buf if the kernel has one queued and
// reports false otherwise. Any failure reads as "nothing now"; one that
// lasts is reported by the blocking read of the next wait.
func (d *rxq) poll(raw syscall.RawConn, buf []byte) (int, bool) {
	if d.fn == nil {
		d.fn = func(fd uintptr) bool {
			d.n, d.err = syscall.Read(int(fd), d.buf)
			return true // never park on the poller
		}
	}
	d.buf = buf
	err := raw.Read(d.fn)
	d.buf = nil
	return d.n, err == nil && d.err == nil
}
