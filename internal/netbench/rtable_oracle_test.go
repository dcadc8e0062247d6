package netbench

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// The route tables' oracle: the bit-at-a-time pointer trie RouteTable4 and
// RouteTable6 were before the flat stride tables, kept verbatim with its
// types renamed. One node per prefix bit; a lookup remembers the last valid
// node on its walk.

type oracleNode struct {
	child   [2]*oracleNode
	nextHop int64
	valid   bool
}

type oracle4 struct {
	root *oracleNode
	n    int
}

func newOracle4() *oracle4 {
	return &oracle4{root: &oracleNode{}}
}

func (t *oracle4) Len() int { return t.n }

func (t *oracle4) Insert(prefix uint32, plen int, nextHop int64) error {
	if plen < 0 || plen > 32 {
		return fmt.Errorf("rtable: bad prefix length %d", plen)
	}
	node := t.root
	for i := 0; i < plen; i++ {
		bit := (prefix >> (31 - uint(i))) & 1
		if node.child[bit] == nil {
			node.child[bit] = &oracleNode{}
		}
		node = node.child[bit]
	}
	if !node.valid {
		t.n++
	}
	node.valid = true
	node.nextHop = nextHop
	return nil
}

func (t *oracle4) Lookup(addr uint32) int64 {
	best := int64(-1)
	node := t.root
	if node.valid {
		best = node.nextHop
	}
	for i := 0; i < 32 && node != nil; i++ {
		bit := (addr >> (31 - uint(i))) & 1
		node = node.child[bit]
		if node != nil && node.valid {
			best = node.nextHop
		}
	}
	return best
}

type oracle6 struct {
	root *oracleNode
	n    int
}

func newOracle6() *oracle6 {
	return &oracle6{root: &oracleNode{}}
}

func (t *oracle6) Len() int { return t.n }

func oracleBit128(hi, lo uint64, i int) uint64 {
	if i < 64 {
		return (hi >> (63 - uint(i))) & 1
	}
	return (lo >> (127 - uint(i))) & 1
}

func (t *oracle6) Insert(hi, lo uint64, plen int, nextHop int64) error {
	if plen < 0 || plen > 128 {
		return fmt.Errorf("rtable: bad prefix length %d", plen)
	}
	node := t.root
	for i := 0; i < plen; i++ {
		b := oracleBit128(hi, lo, i)
		if node.child[b] == nil {
			node.child[b] = &oracleNode{}
		}
		node = node.child[b]
	}
	if !node.valid {
		t.n++
	}
	node.valid = true
	node.nextHop = nextHop
	return nil
}

func (t *oracle6) Lookup(hi, lo uint64) int64 {
	best := int64(-1)
	node := t.root
	if node.valid {
		best = node.nextHop
	}
	for i := 0; i < 128 && node != nil; i++ {
		node = node.child[oracleBit128(hi, lo, i)]
		if node != nil && node.valid {
			best = node.nextHop
		}
	}
	return best
}

// demoOracles builds DemoFIB4's and DemoFIB6's routes into oracle tries.
func demoOracles(tb testing.TB) (*oracle4, *oracle6) {
	o4, o6 := newOracle4(), newOracle6()
	demoRoutes4(func(prefix uint32, plen int, nextHop int64) {
		if err := o4.Insert(prefix, plen, nextHop); err != nil {
			tb.Fatal(err)
		}
	})
	demoRoutes6(func(hi, lo uint64, plen int, nextHop int64) {
		if err := o6.Insert(hi, lo, plen, nextHop); err != nil {
			tb.Fatal(err)
		}
	})
	return o4, o6
}

// key is an address of either family: IPv6's two halves, or an IPv4
// address in the top 32 bits of hi.
type key struct{ hi, lo uint64 }

// top returns the key whose n leading bits are ones.
func top(n int) key {
	switch {
	case n <= 0:
		return key{}
	case n <= 64:
		return key{^uint64(0) << (64 - n), 0}
	default:
		return key{^uint64(0), ^uint64(0) << (128 - n)}
	}
}

func (a key) and(m key) key    { return key{a.hi & m.hi, a.lo & m.lo} }
func (a key) or(m key) key     { return key{a.hi | m.hi, a.lo | m.lo} }
func (a key) andNot(m key) key { return key{a.hi &^ m.hi, a.lo &^ m.lo} }

func (a key) add(b key) key {
	lo, carry := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, carry)
	return key{hi, lo}
}

func (a key) String() string { return fmt.Sprintf("%016x:%016x", a.hi, a.lo) }

// family is one address family's route table beside its oracle.
type family struct {
	width int // address bits: 32 or 128
	t4    *RouteTable4
	o4    *oracle4
	t6    *RouteTable6
	o6    *oracle6
}

func newFamily(v6 bool) *family {
	if v6 {
		return &family{width: 128, t6: NewRouteTable6(), o6: newOracle6()}
	}
	return &family{width: 32, t4: NewRouteTable4(), o4: newOracle4()}
}

func (f *family) randKey(r *rand.Rand) key {
	if f.t6 != nil {
		return key{r.Uint64(), r.Uint64()}
	}
	return key{uint64(r.Uint32()) << 32, 0}
}

// insert installs a/plen -> nextHop in table and oracle, and fails unless
// both accept or both refuse it and their lengths agree after.
func (f *family) insert(tb testing.TB, a key, plen int, nextHop int64) {
	tb.Helper()
	var got, want error
	var gotLen, wantLen int
	if f.t6 != nil {
		got, want = f.t6.Insert(a.hi, a.lo, plen, nextHop), f.o6.Insert(a.hi, a.lo, plen, nextHop)
		gotLen, wantLen = f.t6.Len(), f.o6.Len()
	} else {
		got, want = f.t4.Insert(uint32(a.hi>>32), plen, nextHop), f.o4.Insert(uint32(a.hi>>32), plen, nextHop)
		gotLen, wantLen = f.t4.Len(), f.o4.Len()
	}
	if (got == nil) != (want == nil) {
		tb.Fatalf("/%d: Insert(%v/%d) returned %v, oracle %v", f.width, a, plen, got, want)
	}
	if gotLen != wantLen {
		tb.Fatalf("/%d: Len after Insert(%v/%d) = %d, oracle %d", f.width, a, plen, gotLen, wantLen)
	}
}

// check fails unless table and oracle agree on a.
func (f *family) check(tb testing.TB, a key) {
	tb.Helper()
	var got, want int64
	if f.t6 != nil {
		got, want = f.t6.Lookup(a.hi, a.lo), f.o6.Lookup(a.hi, a.lo)
	} else {
		got, want = f.t4.Lookup(uint32(a.hi>>32)), f.o4.Lookup(uint32(a.hi>>32))
	}
	if got != want {
		tb.Fatalf("/%d: Lookup(%v) = %d, oracle %d", f.width, a, got, want)
	}
}

// checkPrefix checks the first and last addresses of a/plen and the
// address one past its end.
func (f *family) checkPrefix(tb testing.TB, a key, plen int) {
	tb.Helper()
	first := a.and(top(plen))
	last := first.or(top(f.width).andNot(top(plen)))
	f.check(tb, first)
	f.check(tb, last)
	f.check(tb, last.add(top(f.width).andNot(top(f.width-1))))
}

// testLens are the prefix lengths a random table draws half its prefixes
// from: every stride-8 boundary and its neighbours, the two halves' seam
// (/64–/65), and the lengths Insert must refuse.
var testLens = []int{-1, 0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 63, 64, 65, 127, 128, 129}

func (f *family) randLen(r *rand.Rand) int {
	if r.Intn(2) == 0 {
		return r.Intn(f.width + 1)
	}
	for {
		if l := testLens[r.Intn(len(testLens))]; l <= f.width+1 {
			return l
		}
	}
}

// randomTable builds one random table beside its oracle and checks them
// against each other throughout. Prefixes cluster around three random keys
// so they nest and overlap; host bits past the length stay set; one insert
// in five re-installs an earlier prefix (new host bits, new next hop); and
// probes run between inserts as well as after. It returns the lengths it
// installed.
func randomTable(tb testing.TB, r *rand.Rand, v6 bool) []int {
	f := newFamily(v6)
	var seeds [3]key
	for i := range seeds {
		seeds[i] = f.randKey(r)
	}
	type route struct {
		a    key
		plen int
	}
	var routes []route
	var lens []int
	probe := func() key {
		keep := r.Intn(f.width + 1)
		return seeds[r.Intn(len(seeds))].and(top(keep)).or(f.randKey(r).andNot(top(keep)))
	}
	for hop, n := int64(0), 1+r.Intn(48); hop < int64(n); hop++ {
		a, plen := probe(), f.randLen(r)
		if len(routes) > 0 && r.Intn(5) == 0 {
			old := routes[r.Intn(len(routes))]
			a, plen = old.a.and(top(old.plen)).or(f.randKey(r).andNot(top(old.plen))), old.plen
		}
		f.insert(tb, a, plen, hop)
		if plen < 0 || plen > f.width {
			continue
		}
		routes = append(routes, route{a, plen})
		lens = append(lens, plen)
		if r.Intn(4) == 0 {
			f.checkPrefix(tb, a, plen)
			f.check(tb, probe())
		}
	}
	for _, rt := range routes {
		f.checkPrefix(tb, rt.a, rt.plen)
	}
	for i := 0; i < 64; i++ {
		f.check(tb, probe())
		f.check(tb, f.randKey(r))
	}
	return lens
}

// TestRouteTableMatchesTrie holds RouteTable4 and RouteTable6 to the
// bit-at-a-time trie on 500 random tables per family — every prefix length
// installed somewhere — and on every source and destination address the
// packet generators produce for k in [0, 2¹⁶) against the demo FIBs.
func TestRouteTableMatchesTrie(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, v6 := range []bool{false, true} {
		f := newFamily(v6)
		seen := make([]bool, f.width+1)
		for i := 0; i < 500; i++ {
			for _, l := range randomTable(t, r, v6) {
				seen[l] = true
			}
		}
		for l, ok := range seen {
			if !ok {
				t.Errorf("/%d: no random table installed a /%d", f.width, l)
			}
		}
	}

	fib4, fib6 := DemoFIB4(), DemoFIB6()
	o4, o6 := demoOracles(t)
	if fib4.Len() != o4.Len() || fib6.Len() != o6.Len() {
		t.Fatalf("demo FIB lengths %d, %d; oracle %d, %d", fib4.Len(), fib6.Len(), o4.Len(), o6.Len())
	}
	be32, be64 := binary.BigEndian.Uint32, binary.BigEndian.Uint64
	for k := 0; k < 1<<16; k++ {
		ip := MinIPv4Packet(k, 64)[FrameHdrLen:]
		for _, a := range []uint32{be32(ip[12:]), be32(ip[16:])} {
			if got, want := fib4.Lookup(a), o4.Lookup(a); got != want {
				t.Fatalf("k=%d: DemoFIB4.Lookup(%08x) = %d, oracle %d", k, a, got, want)
			}
		}
		ip = MinIPv6Packet(k, 64)[FrameHdrLen:]
		for _, off := range []int{8, 24} {
			hi, lo := be64(ip[off:]), be64(ip[off+8:])
			if got, want := fib6.Lookup(hi, lo), o6.Lookup(hi, lo); got != want {
				t.Fatalf("k=%d: DemoFIB6.Lookup(%016x, %016x) = %d, oracle %d", k, hi, lo, got, want)
			}
		}
	}
}

// FuzzRouteTable installs a fuzzed prefix list in a table and its oracle
// and checks them against each other on each prefix as it goes in, on
// every prefix again at the end and on a fuzzed probe list. family: even
// is IPv4, odd IPv6. A prefix record is the address (4 or 16 bytes,
// big-endian), a length byte b for length b mod (width+3) − 1 — so −1 and
// width+1, which both must refuse, occur — and a next-hop byte; a probe is
// an address.
func FuzzRouteTable(f *testing.F) {
	f.Add(byte(0), []byte{0, 0, 0, 0, 1, 9, 10, 0, 0, 0, 9, 1, 10, 1, 0, 0, 17, 2, 10, 1, 2, 0, 25, 3, 10, 1, 2, 128, 26, 4},
		[]byte{10, 1, 2, 3, 10, 1, 2, 200, 10, 1, 3, 0, 11, 0, 0, 0})
	f.Add(byte(1), append(append(
		[]byte{0x20, 0x01, 0x0d, 0xb8, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 65, 2},
		0x20, 0x01, 0x0d, 0xb8, 0, 1, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 66, 7),
		0x20, 0x01, 0x0d, 0xb8, 0, 1, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 1, 129, 8),
		[]byte{0x20, 0x01, 0x0d, 0xb8, 0, 1, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 2})
	f.Fuzz(func(t *testing.T, fam byte, prefixes, probes []byte) {
		fa := newFamily(fam%2 == 1)
		n := fa.width / 8
		decode := func(b []byte) key {
			if n == 4 {
				return key{uint64(binary.BigEndian.Uint32(b)) << 32, 0}
			}
			return key{binary.BigEndian.Uint64(b), binary.BigEndian.Uint64(b[8:])}
		}
		type route struct {
			a    key
			plen int
		}
		var routes []route
		for ; len(prefixes) >= n+2; prefixes = prefixes[n+2:] {
			a, plen := decode(prefixes), int(prefixes[n])%(fa.width+3)-1
			fa.insert(t, a, plen, int64(prefixes[n+1]))
			if plen >= 0 && plen <= fa.width {
				fa.checkPrefix(t, a, plen)
				routes = append(routes, route{a, plen})
			}
		}
		for _, rt := range routes {
			fa.checkPrefix(t, rt.a, rt.plen)
		}
		for ; len(probes) >= n; probes = probes[n:] {
			fa.check(t, decode(probes))
		}
	})
}

var lookupSink int64

// BenchmarkRouteLookup times one lookup on the demo FIBs, in the table and
// in its oracle, over the keys the IPv4 and IP PPSes look up in a
// benchmark/ workload: each frame's destination and (the RPF check) source,
// frames built as genCycle builds them from k drawn uniformly from
// [0, 2¹⁶). IPv4 destinations land in the /8, /16 and /24 classes, IPv6 in
// the /48s and /64s; sources miss every specific route to the default.
func BenchmarkRouteLookup(b *testing.B) {
	const n = 1 << 13 // keys per family, a power of two: the loop masks
	r := rand.New(rand.NewSource(1))
	v4 := make([]uint32, 0, n)
	v6 := make([]key, 0, n)
	be32, be64 := binary.BigEndian.Uint32, binary.BigEndian.Uint64
	for len(v4) < n {
		k := r.Intn(1 << 16)
		ip := MinIPv4Packet(k, 64)[FrameHdrLen:]
		v4 = append(v4, be32(ip[16:]), be32(ip[12:]))
		ip = MinIPv6Packet(k, 64)[FrameHdrLen:]
		v6 = append(v6, key{be64(ip[24:]), be64(ip[32:])}, key{be64(ip[8:]), be64(ip[16:])})
	}
	fib4, fib6 := DemoFIB4(), DemoFIB6()
	o4, o6 := demoOracles(b)
	// One loop per case, no function value between the timer and the
	// lookup: an indirect call is a sizeable part of a few-ns lookup.
	b.Run("IPv4/table", func(b *testing.B) {
		var s int64
		for i := 0; i < b.N; i++ {
			s += fib4.Lookup(v4[i&(n-1)])
		}
		lookupSink = s
	})
	b.Run("IPv4/oracle", func(b *testing.B) {
		var s int64
		for i := 0; i < b.N; i++ {
			s += o4.Lookup(v4[i&(n-1)])
		}
		lookupSink = s
	})
	b.Run("IPv6/table", func(b *testing.B) {
		var s int64
		for i := 0; i < b.N; i++ {
			a := v6[i&(n-1)]
			s += fib6.Lookup(a.hi, a.lo)
		}
		lookupSink = s
	})
	b.Run("IPv6/oracle", func(b *testing.B) {
		var s int64
		for i := 0; i < b.N; i++ {
			a := v6[i&(n-1)]
			s += o6.Lookup(a.hi, a.lo)
		}
		lookupSink = s
	})
}
