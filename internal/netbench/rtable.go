// Package netbench reproduces the paper's evaluation workloads: the NPF
// IPv4 forwarding benchmark (RX, IPv4, Scheduler, QM and TX packet
// processing stages) and the NPF IP forwarding benchmark (RX, IP with
// separate IPv4/IPv6 code paths, TX), written in PPC; plus the substrate
// they need — longest-prefix-match route tables and deterministic
// minimum-size POS packet generators.
package netbench

import "fmt"

// stride is the number of address bits one trie level consumes. A lookup
// makes at most 32/stride dependent loads for IPv4 and 128/stride for
// IPv6. It must divide 64, so that no level straddles the two halves of an
// IPv6 address, and be at most 8, the width of slot.own.
const stride = 8

// lpm is a longest-prefix-match multibit trie over 128-bit keys whose nodes
// lie in one flat slot array. A prefix ending r bits into a node's span
// (1 ≤ r ≤ stride) is expanded at insert time into the 1<<(stride−r) slots
// of that node it covers. A slot keeps the longest prefix expanded into it,
// whatever the insert order, so a lookup's answer is the last prefix it met
// on its path from the root.
type lpm struct {
	slots   []slot // node k is slots[k<<stride : (k+1)<<stride]; node 0 is the root
	dflt    int64  // next hop of the /0, -1 if none
	hasDflt bool
	n       int // installed prefixes
}

type slot struct {
	hop  int64  // next hop of the longest prefix expanded into this slot
	next uint32 // first slot of the child node, 0 if none (the root is no child)
	plen uint8  // length of that prefix, 0 if none
	own  uint8  // bit r−1 set: a prefix ending r bits into this node starts here
}

func newLPM() lpm {
	return lpm{slots: make([]slot, 1<<stride), dflt: -1}
}

// insert installs (hi, lo)/plen -> hop; plen is 0..128, host bits past it
// are ignored.
func (t *lpm) insert(hi, lo uint64, plen int, hop int64) {
	if plen == 0 {
		if !t.hasDflt {
			t.hasDflt = true
			t.n++
		}
		t.dflt = hop
		return
	}
	base := uint32(0)
	for depth := 0; ; depth += stride {
		i := chunk(hi, lo, depth)
		if r := plen - depth; r <= stride {
			first := base + i&^(1<<(stride-r)-1)
			span := t.slots[first : first+1<<(stride-r)]
			if own := uint8(1) << (r - 1); span[0].own&own == 0 {
				span[0].own |= own
				t.n++
			}
			for j := range span {
				if span[j].plen <= uint8(plen) {
					span[j].hop, span[j].plen = hop, uint8(plen)
				}
			}
			return
		}
		next := t.slots[base+i].next
		if next == 0 {
			next = uint32(len(t.slots))
			t.slots = append(t.slots, make([]slot, 1<<stride)...)
			t.slots[base+i].next = next
		}
		base = next
	}
}

// chunk returns the stride bits of (hi, lo) that start depth bits in.
func chunk(hi, lo uint64, depth int) uint32 {
	if depth >= 64 {
		hi, depth = lo, depth-64
	}
	return uint32(hi>>(64-stride-depth)) & (1<<stride - 1)
}

// lookup returns the next hop of the longest prefix matching (hi, lo), or
// -1: one slot load per level, until a slot has no child.
func (t *lpm) lookup(hi, lo uint64) int64 {
	best, base := t.dflt, uint32(0)
	for _, w := range [2]uint64{hi, lo} {
		for shift := 64 - stride; shift >= 0; shift -= stride {
			s := &t.slots[base|uint32(w>>shift)&(1<<stride-1)]
			if s.plen != 0 {
				best = s.hop
			}
			if s.next == 0 {
				return best
			}
			base = s.next
		}
	}
	return best
}

// RouteTable4 is a longest-prefix-match table over IPv4 prefixes: a
// stride-8 multibit trie in one flat array, at most four dependent loads a
// lookup.
type RouteTable4 struct{ lpm }

// NewRouteTable4 returns an empty table.
func NewRouteTable4() *RouteTable4 {
	return &RouteTable4{newLPM()}
}

// Len returns the number of installed prefixes.
func (t *RouteTable4) Len() int { return t.n }

// Insert installs prefix/plen -> nextHop. plen must be 0..32.
func (t *RouteTable4) Insert(prefix uint32, plen int, nextHop int64) error {
	if plen < 0 || plen > 32 {
		return fmt.Errorf("rtable: bad prefix length %d", plen)
	}
	t.insert(uint64(prefix)<<32, 0, plen, nextHop)
	return nil
}

// Lookup returns the next hop of the longest matching prefix, or -1.
func (t *RouteTable4) Lookup(addr uint32) int64 {
	return t.lookup(uint64(addr)<<32, 0)
}

// RouteTable6 is the same table over 128-bit IPv6 prefixes, addressed as
// two 64-bit halves (hi, lo) to match the rt6_lookup intrinsic: at most 16
// dependent loads a lookup, 8 for a /64.
type RouteTable6 struct{ lpm }

// NewRouteTable6 returns an empty table.
func NewRouteTable6() *RouteTable6 {
	return &RouteTable6{newLPM()}
}

// Len returns the number of installed prefixes.
func (t *RouteTable6) Len() int { return t.n }

// Insert installs a prefix given as two halves and a length 0..128.
func (t *RouteTable6) Insert(hi, lo uint64, plen int, nextHop int64) error {
	if plen < 0 || plen > 128 {
		return fmt.Errorf("rtable: bad prefix length %d", plen)
	}
	t.insert(hi, lo, plen, nextHop)
	return nil
}

// Lookup returns the next hop of the longest matching prefix, or -1.
func (t *RouteTable6) Lookup(hi, lo uint64) int64 {
	return t.lookup(hi, lo)
}

// DemoFIB4 builds a deterministic IPv4 FIB with a default route, several
// /8 and /16 aggregates, and a sprinkle of /24s — enough that lookups on
// the generated traffic spread across next hops. Each call builds a fresh
// table the caller may insert into.
func DemoFIB4() *RouteTable4 {
	t := NewRouteTable4()
	demoRoutes4(func(prefix uint32, plen int, nextHop int64) { mustInstall(t.Insert(prefix, plen, nextHop)) })
	return t
}

// demoRoutes4 feeds DemoFIB4's routes to add, in install order.
func demoRoutes4(add func(prefix uint32, plen int, nextHop int64)) {
	add(0, 0, 0) // default route -> port 0
	for i := uint32(1); i <= 8; i++ {
		add(i<<24, 8, int64(i%4)) // 1.0.0.0/8 .. 8.0.0.0/8
	}
	for i := uint32(0); i < 16; i++ {
		add(10<<24|i<<16, 16, int64(1+i%3)) // 10.i.0.0/16
	}
	for i := uint32(0); i < 32; i++ {
		add(10<<24|1<<16|i<<8, 24, int64(i%4)) // 10.1.i.0/24
	}
}

// DemoFIB6 builds a deterministic IPv6 FIB, fresh on each call.
func DemoFIB6() *RouteTable6 {
	t := NewRouteTable6()
	demoRoutes6(func(hi, lo uint64, plen int, nextHop int64) { mustInstall(t.Insert(hi, lo, plen, nextHop)) })
	return t
}

// demoRoutes6 feeds DemoFIB6's routes to add, in install order.
func demoRoutes6(add func(hi, lo uint64, plen int, nextHop int64)) {
	add(0, 0, 0, 0) // default
	for i := uint64(0); i < 8; i++ {
		add(0x2001_0db8_0000_0000|i<<16, 0, 48, int64(i%4))
	}
	for i := uint64(0); i < 16; i++ {
		add(0x2001_0db8_0001_0000|i, 0, 64, int64(1+i%3))
	}
}

// mustInstall panics on a demo route Insert refused: the demo FIBs are
// fixed data, so that is a bug in this file, found when the table is built.
func mustInstall(err error) {
	if err != nil {
		panic("netbench: demo FIB: " + err.Error())
	}
}
