//go:build !unix

package ingest

import "syscall"

// drainer is UDPSource's non-blocking receive; off Unix it has no portable
// form, so Pull returns the one datagram it blocked for.
type drainer struct{}

func (*drainer) read(syscall.RawConn, []byte) (int, bool) { return 0, false }
