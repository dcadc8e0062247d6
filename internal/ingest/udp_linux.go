//go:build linux && !386

package ingest

import (
	"encoding/binary"
	"net"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// rxq is UDPSource's receive path on Linux, where the kernel says what it
// dropped: with SO_RXQ_OVFL set, every datagram queued after a receive-queue
// overflow carries the socket's cumulative drop count in a control message,
// and both reads fold each increase into Stats.Drops. Drops after the last
// queued datagram show with the next one. Both reads reuse the one control buffer;
// the non-blocking one is a raw recvmsg(2) on a header built once — Go opens
// sockets non-blocking, so it returns one queued datagram or EAGAIN, never
// waiting — so neither allocates per datagram.
type rxq struct {
	drops *atomic.Int64 // the source's Stats.drops
	seen  uint32        // the cumulative count the last datagram carried
	oob   []byte

	msg syscall.Msghdr
	iov syscall.Iovec
	n   int
	err syscall.Errno
	fn  func(fd uintptr) bool
}

// init turns the overflow count on and builds the drain's header and
// callback once.
func (r *rxq) init(raw syscall.RawConn, st *Stats) error {
	r.drops, r.oob = &st.drops, make([]byte, syscall.CmsgSpace(4))
	r.msg.Iov, r.msg.Iovlen = &r.iov, 1
	r.fn = func(fd uintptr) bool {
		n, _, e := syscall.Syscall(syscall.SYS_RECVMSG, fd, uintptr(unsafe.Pointer(&r.msg)), 0)
		r.n, r.err = int(n), e
		return true // never park on the poller
	}
	var serr error
	if err := raw.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL, 1)
	}); err != nil {
		return err
	}
	return serr
}

// wait is the blocking read, under the caller's deadline.
func (r *rxq) wait(conn *net.UDPConn, buf []byte) (int, error) {
	n, oobn, _, _, err := conn.ReadMsgUDPAddrPort(buf, r.oob)
	r.fold(r.oob[:oobn])
	return n, err
}

// poll receives one datagram into buf if the kernel has one queued and
// reports false otherwise. Any failure reads as "nothing now"; one that
// lasts is reported by the blocking read of the next wait.
func (r *rxq) poll(raw syscall.RawConn, buf []byte) (int, bool) {
	r.iov.Base = &buf[0]
	r.iov.SetLen(len(buf))
	r.msg.Control = &r.oob[0]
	r.msg.SetControllen(len(r.oob))
	err := raw.Read(r.fn)
	r.iov.Base = nil
	if err != nil || r.err != 0 {
		return 0, false
	}
	r.fold(r.oob[:r.msg.Controllen])
	return r.n, true
}

// fold books the increase of the kernel's drop count a datagram's control
// message carries; SO_RXQ_OVFL is the only one the socket asks for.
func (r *rxq) fold(oob []byte) {
	if len(oob) < syscall.CmsgLen(4) {
		return
	}
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	if h.Level != syscall.SOL_SOCKET || h.Type != syscall.SO_RXQ_OVFL {
		return
	}
	if c := binary.NativeEndian.Uint32(oob[syscall.CmsgLen(0):]); c != r.seen {
		r.drops.Add(int64(c - r.seen))
		r.seen = c
	}
}
