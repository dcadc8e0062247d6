//go:build !unix

package ingest

import (
	"net"
	"syscall"
)

// rxq is UDPSource's receive path off Unix: a blocking read only, so Pull
// returns the one datagram it blocked for, and kernel receive-queue drops
// are not reported (Stats.Drops stays 0).
type rxq struct{}

func (*rxq) init(syscall.RawConn, *Stats) error { return nil }

func (*rxq) wait(conn *net.UDPConn, buf []byte) (int, error) { return conn.Read(buf) }

func (*rxq) poll(syscall.RawConn, []byte) (int, bool) { return 0, false }
