package netbench

import (
	"testing"

	"repro/internal/interp"
)

// nativeIPv4 is the IPv4 PPS of IPv4Src written by hand in Go: the same
// checks in the same order, the same packet edits, the same events, over a
// private copy of the frame as pkt_rx takes one. It is the floor the
// compiled backend's ns/packet is set against (EXPERIMENTS.md, "Host
// throughput", records of PR 15 and 16): what this host needs to forward one packet when nothing is
// interpreted.
type nativeIPv4 struct {
	fib    *RouteTable4
	meta   [16]int64
	events []interp.Event
}

func (n *nativeIPv4) drop() { n.events = append(n.events, interp.Event{Kind: interp.EvDrop}) }

func (n *nativeIPv4) trace(v int64) {
	n.events = append(n.events, interp.Event{Kind: interp.EvTrace, Val: v})
}

func nativeFold(x int64) int64 {
	v := uint64(x) & 0xFFFFFFFF
	v = (v & 0xFFFF) + (v >> 16)
	v = (v & 0xFFFF) + (v >> 16)
	return int64(v)
}

func nativeHash(x int64) int64 {
	v := uint64(x)
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	return int64(v & 0x7FFFFFFF)
}

// forward processes one frame.
func (n *nativeIPv4) forward(frame []byte) {
	pkt := make([]byte, len(frame))
	copy(pkt, frame)
	if len(pkt) < 24 {
		n.drop()
		return
	}
	const base = 4
	ip := pkt[base:] // at least 20 bytes: the fixed IPv4 header
	be16 := func(off int) int64 { return int64(ip[off])<<8 | int64(ip[off+1]) }
	be32 := func(off int) int64 {
		return int64(ip[off])<<24 | int64(ip[off+1])<<16 | int64(ip[off+2])<<8 | int64(ip[off+3])
	}
	if ip[0]>>4 != 4 || ip[0]&0x0F < 5 {
		n.drop()
		return
	}
	if totlen := be16(2); totlen < 20 || totlen > int64(len(pkt))-4 {
		n.drop()
		return
	}
	var sum int64
	for off := 0; off < 20; off += 2 {
		sum += be16(off)
	}
	if nativeFold(sum) != 0xFFFF {
		n.drop()
		return
	}
	ttl := ip[8]
	if ttl <= 1 {
		n.trace(-11)
		n.drop()
		return
	}
	ip[8] = ttl - 1
	cs := nativeFold(be16(10) + 0x0100) // RFC 1624: the TTL is the high byte of word 4
	ip[10], ip[11] = byte(cs>>8), byte(cs)

	src, dst := be32(12), be32(16)
	if a := src >> 24; a == 127 || a == 0 || (a >= 224 && a < 240) || src == 0xFFFFFFFF {
		n.drop()
		return
	}
	nh := n.fib.Lookup(uint32(dst))
	if nh < 0 {
		n.trace(-12)
		n.drop()
		return
	}
	var rpfok int64
	if n.fib.Lookup(uint32(src)) >= 0 {
		rpfok = 1
	}
	// The ports lie past the 24 bytes checked above: a missing byte reads 0.
	at := func(off int) int64 {
		if off < len(pkt) {
			return int64(pkt[off])
		}
		return 0
	}
	sport, dport := at(base+20)<<8|at(base+21), at(base+22)<<8|at(base+23)
	flow := nativeHash(nativeHash(src^(dst<<1)) ^ (nativeHash(sport<<16|dport) >> 3))
	port := nh + (flow & 1 & rpfok)
	class := [8]int64{0, 1, 1, 2, 2, 3, 3, 0}[ip[1]>>5]

	n.meta[4], n.meta[5], n.meta[3] = port, flow&0xFFFF, class
	n.trace(port*8 + class)
	n.events = append(n.events, interp.Event{Kind: interp.EvSend, Val: port, Pkt: pkt})
}

// BenchmarkNativeIPv4 times the hand-written forwarder over the traffic and
// FIB the serve benchmarks use, after checking its event trace against the
// interpreter running the PPS itself: a floor with a different behaviour
// would be no floor.
func BenchmarkNativeIPv4(b *testing.B) {
	pps, ok := ByName("IPv4")
	if !ok {
		b.Fatal("IPv4 benchmark missing")
	}
	prog, err := pps.Compile()
	if err != nil {
		b.Fatal(err)
	}
	traffic := IPv4Stream(256)
	want, err := interp.RunSequential(prog, NewWorld(traffic), len(traffic))
	if err != nil {
		b.Fatal(err)
	}
	n := &nativeIPv4{fib: DemoFIB4()}
	for _, p := range traffic {
		n.forward(p)
	}
	if diff := interp.TraceEqual(want, n.events); diff != "" {
		b.Fatalf("native forwarder diverges from the IPv4 PPS: %s", diff)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.events = n.events[:0] // per packet, as an iteration context's event buffer is
		n.forward(traffic[i%len(traffic)])
	}
}
