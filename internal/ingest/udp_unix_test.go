//go:build unix

package ingest

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/netbench"
)

// TestUDPPullDrainsQueued: Pull blocks for the first datagram only and then
// takes every other one the kernel already holds — ten queued datagrams
// come back from one call, not one call each — and each packet's capacity
// ends where it does, so the chunk they share cannot leak from one into
// the next.
func TestUDPPullDrainsQueued(t *testing.T) {
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
	// A loopback send has queued its datagram on the receiving socket by
	// the time it returns.
	want := netbench.IPv4Stream(10)
	for _, p := range want {
		if _, err := conn.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	dst := make([][]byte, 32)
	n, err := src.Pull(ctx, dst)
	if err != nil || n != len(want) {
		t.Fatalf("Pull = %d, %v with %d datagrams queued", n, err, len(want))
	}
	for i, p := range dst[:n] {
		if !bytes.Equal(p, want[i]) {
			t.Errorf("packet %d differs", i)
		}
		if cap(p) != len(p) {
			t.Errorf("packet %d has %d bytes and capacity %d", i, len(p), cap(p))
		}
	}
	if v := src.Stats().View(); v.RxPackets != int64(n) || v.DecodeErrors != 0 {
		t.Errorf("stats %+v after %d packets", v, n)
	}
}
