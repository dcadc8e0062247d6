//go:build linux && !386

package ingest

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/netbench"
)

// TestUDPCountsKernelDrops: a burst into a shrunken receive buffer that
// nobody drains overflows it, and the kernel's drop count reaches
// Stats.Drops. The count rides on the datagrams queued after the overflow,
// so a last datagram is sent once the burst is drained; then every datagram
// sent is either received or counted as dropped. The first round takes that
// datagram with the non-blocking read, the second with the blocking one.
func TestUDPCountsKernelDrops(t *testing.T) {
	src, err := OpenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := src.conn.SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", src.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dst := make([][]byte, 32)
	pull := func(d time.Duration) error {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		_, err := src.Pull(ctx, dst)
		return err
	}
	burst, sent := netbench.IPv4Stream(256), int64(0)
	for round, viaPoll := range []bool{true, false} {
		// A loopback send has queued (or dropped) its datagram on the
		// receiving socket by the time it returns.
		for _, p := range burst {
			if _, err := conn.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		for pull(200*time.Millisecond) == nil {
		}
		if _, err := conn.Write(burst[0]); err != nil {
			t.Fatal(err)
		}
		sent += int64(len(burst) + 1)
		if viaPoll {
			// Pull's read deadline has passed, and the raw read honours it.
			if err := src.conn.SetReadDeadline(time.Time{}); err != nil {
				t.Fatal(err)
			}
			if _, ok := src.rx.poll(src.raw, make([]byte, maxDatagram)); !ok {
				t.Fatal("the last datagram was not queued")
			}
			src.stats.rxPackets.Add(1) // what Pull would have booked
		} else if err := pull(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		v := src.Stats().View()
		if v.Drops == 0 || v.RxPackets+v.Drops != sent {
			t.Fatalf("round %d: received %d, dropped %d of %d sent", round, v.RxPackets, v.Drops, sent)
		}
	}
}
