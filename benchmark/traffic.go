package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	stdruntime "runtime"
	"time"

	"repro/internal/ingest"
	"repro/internal/netbench"
)

// cycleLen is the number of distinct frames a workload's traffic cycles
// through: large enough that route lookups and flow hashes see varied
// keys, small enough to stay cache-resident so the source itself is not
// what is measured.
const cycleLen = 4096

// genCycle builds the workload's traffic from the seed: cycleLen distinct
// minimum-size (48-byte) POS frames in the netbench.IPv4Stream shape —
// one in 17 with an expiring TTL, the slow path — or, when mixed, the
// MixedStream shape with IPv6 frames at the odd positions. The program
// under test receives these bytes and never the seed.
func genCycle(seed int64, mixed bool) [][]byte {
	r := rand.New(rand.NewSource(seed))
	out := make([][]byte, cycleLen)
	for i := range out {
		k := r.Intn(1 << 16)
		ttl := byte(64)
		if r.Intn(17) == 0 {
			ttl = 1
		}
		if mixed && i%2 == 1 {
			out[i] = netbench.MinIPv6Packet(k, ttl)
		} else {
			out[i] = netbench.MinIPv4Packet(k, ttl)
		}
	}
	return out
}

// cycleSource is the saturated in-memory source: it hands out total
// packets as fast as the head stage pulls (a closed loop), stamps the
// first pull so the harness clock starts where the packets do, and marks
// the clock again each time a whole cycle has been pulled and when the
// stream ends — under backpressure the head pulls at the pipeline's own
// rate, so the gaps between marks are its throughput a cycle at a time.
type cycleSource struct {
	cyc   [][]byte
	total int
	n     int
	first time.Time
	marks marks
}

func (s *cycleSource) Next() ([]byte, bool) {
	switch {
	case s.n == 0:
		s.first = time.Now()
	case s.n%len(s.cyc) == 0 || s.n >= s.total:
		s.marks.at(s.first, s.n)
	}
	if s.n >= s.total {
		return nil, false
	}
	p := s.cyc[s.n%len(s.cyc)]
	s.n++
	return p, true
}

// marks is a source's record of how far the pull had got at which time
// since the first pull.
type marks struct {
	when  []time.Duration
	count []int
}

// at records that n packets have been pulled by now, once per n.
func (m *marks) at(first time.Time, n int) {
	if k := len(m.count); k == 0 || m.count[k-1] != n {
		m.when = append(m.when, time.Since(first))
		m.count = append(m.count, n)
	}
}

// perPacket returns the seconds per packet of each stretch between two
// marks (the first from the first pull), and when the last mark was made.
func (m *marks) perPacket() (windows []float64, last time.Duration) {
	var t0 time.Duration
	n0 := 0
	for i, t := range m.when {
		windows = append(windows, (t-t0).Seconds()/float64(m.count[i]-n0))
		t0, n0 = t, m.count[i]
	}
	return windows, t0
}

// poissonSchedule precomputes n arrival times at the given mean rate,
// exponential gaps drawn from the seed, as offsets from the first pull.
func poissonSchedule(seed int64, n int, rate float64) []time.Duration {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += r.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// pacedSource is the open-loop source: packet i is handed over no earlier
// than due[i], whatever the pipeline is doing. It polls the clock with
// Gosched rather than sleeping — timer slop on a shared host is an order
// of magnitude above the latencies being measured — and records when each
// packet was actually handed over, so generator lateness is itself a
// reported number.
type pacedSource struct {
	cyc    [][]byte
	due    []time.Duration
	handed []time.Duration
	n      int
	first  time.Time
}

func (s *pacedSource) Next() ([]byte, bool) {
	if s.n >= len(s.due) {
		return nil, false
	}
	if s.n == 0 {
		s.first = time.Now()
	}
	for {
		now := time.Since(s.first)
		if now >= s.due[s.n] {
			s.handed[s.n] = now
			break
		}
		stdruntime.Gosched()
	}
	p := s.cyc[s.n%len(s.cyc)]
	s.n++
	return p, true
}

// stampSource wraps a batch source to stamp its first Pull and to mark the
// clock as cycleSource does: whenever another cycle's worth of packets
// has been pulled, and at the end of the stream.
type stampSource struct {
	ingest.Source
	first time.Time
	n     int
	next  int // the count at which the next mark is due
	marks marks
}

func (s *stampSource) Pull(ctx context.Context, dst [][]byte) (int, error) {
	if s.first.IsZero() {
		s.first = time.Now()
		s.next = cycleLen
	}
	n, err := s.Source.Pull(ctx, dst)
	s.n += n
	if s.n >= s.next || (err != nil && s.n > 0) {
		s.marks.at(s.first, s.n)
		for s.next <= s.n {
			s.next += cycleLen
		}
	}
	return n, err
}

// sendFrames is the TCP workload's load generator: one connection to addr
// carrying total packets of the cycle in the source's framing (2-byte
// big-endian length, then the payload) through a 64 KiB buffered writer.
// TCP flow control closes the loop: the sender runs exactly as fast as
// the pipeline pulls.
func sendFrames(addr string, cyc [][]byte, total int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(conn, 64<<10)
	var hdr [2]byte
	for i := 0; i < total && err == nil; i++ {
		p := cyc[i%len(cyc)]
		binary.BigEndian.PutUint16(hdr[:], uint16(len(p)))
		w.Write(hdr[:]) // a bufio.Writer's error is sticky: the payload write reports it
		_, err = w.Write(p)
	}
	if err == nil {
		err = w.Flush()
	}
	return errors.Join(err, conn.Close())
}
