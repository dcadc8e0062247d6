//go:build unix

package ingest

import "syscall"

// drainer is UDPSource's non-blocking receive, on Unix: Go opens sockets
// non-blocking, so a plain read(2) on the descriptor returns one queued
// datagram or EAGAIN, never waiting. (A read deadline already in the past
// does not do this — Go fails such a read before the system call.) The
// callback is built once and works on the fields: a closure per call would
// be an allocation per datagram.
type drainer struct {
	buf []byte
	n   int
	err error
	fn  func(fd uintptr) bool
}

// read receives one datagram into buf if the kernel has one queued and
// reports false otherwise. Any failure reads as "nothing now"; one that
// lasts is reported by the blocking read of the next wait.
func (d *drainer) read(raw syscall.RawConn, buf []byte) (int, bool) {
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
