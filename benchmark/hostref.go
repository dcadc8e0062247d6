package main

import (
	"math"
	"time"
)

// The host reference: two small kernels of the benchmark's own, timed
// between the repetitions of every workload, whose best-decile times say
// how fast this host's memory system was while the run lasted. None of the
// repository's code runs in them, so a change to the program cannot move
// them; only the host can.
//
// Why they exist: on the shared reference host a pure ALU loop runs within
// 2 % from one minute to the next, but anything that leaves the core's own
// cache — a walk over 8 MiB, an allocation-heavy build of a linked
// structure — drifts by 15-30 % over minutes as the neighbours' load on
// the shared last-level cache and memory comes and goes, and every timed
// section of every workload drifts with it (README.md, "Noise on this
// host", has the measurements). Dividing a timing by the host factor takes
// most of that drift out: across ten runs the spread of the wall-clock
// metrics fell from 9-21 % to 2-8 %.
const (
	// About the best deciles the reference host gives the kernels at its
	// quietest; the host factor is 1.0 there and reached 1.3 in the
	// noisiest twenty minutes measured.
	nominalWalkMs  = 9.0
	nominalAllocMs = 2.0

	// The program is less memory-bound than the reference: where the
	// reference slows by r, a timed section slows by about r^elasticity.
	// Over 30 runs of each workload the fitted exponent of the 18 adjusted
	// workload-metric pairs was 0.52-0.93, mean 0.77; one exponent for all
	// leaves the least memory-bound (fwd-d1 throughput, 0.57) slightly
	// over-corrected and the most (partition sweeps, 0.9) slightly under.
	elasticity = 0.75

	walkBytes = 8 << 20 // past the core's 2 MiB L2, inside the shared L3
	walkSteps = 100_000
	allocObjs = 20_000
)

// hostRef holds the walk kernel's array between samples.
type hostRef struct {
	next []uint32 // one random cycle through the whole array
	at   uint32
}

var refSink uint64 // keeps the kernels' results live

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func newHostRef() *hostRef {
	n := walkBytes / 4
	r := &hostRef{next: make([]uint32, n)}
	for i := range r.next {
		r.next[i] = uint32(i)
	}
	// Sattolo's shuffle: a single cycle, so the walk visits every line.
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		r.next[i], r.next[j] = r.next[j], r.next[i]
	}
	return r
}

// walk follows the cycle for walkSteps dependent loads: the latency of
// the shared cache, one miss at a time.
func (r *hostRef) walk() {
	p := r.at
	for k := 0; k < walkSteps; k++ {
		p = r.next[p]
	}
	r.at = p
}

type refNode struct {
	next *refNode
	kids []*refNode
	val  [4]uint64
}

// build allocates a linked, pointer-rich structure with a map over it and
// walks it once: the allocator, the collector's write barriers and fresh
// memory, as compile, analyze, partition and a sink's trace use them.
func build() {
	index := make(map[uint64]*refNode)
	var head *refNode
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < allocObjs; i++ {
		x = xorshift(x)
		n := &refNode{next: head}
		n.val[0] = x
		if head != nil && i%4 == 0 {
			n.kids = append(n.kids, head, head.next)
		}
		head = n
		index[x&0xffff] = n
	}
	var sum uint64
	for n := head; n != nil; n = n.next {
		sum += n.val[0] + uint64(len(n.kids))
	}
	refSink += sum + uint64(len(index))
}

// sample times each kernel once, from a collected heap like every other
// timed section.
func (r *hostRef) sample(h *harness) {
	settle()
	t0 := time.Now()
	r.walk()
	t1 := time.Now()
	build()
	t2 := time.Now()
	h.samples.add("harness.host_walk_ms", ms(t1.Sub(t0)))
	h.samples.add("harness.host_alloc_ms", ms(t2.Sub(t1)))
}

// hostFactor is the factor by which the host slowed the program's timed
// sections over the sample set s: how much slower than nominal it ran the
// reference (the geometric mean of the two kernels' best deciles over
// their nominal times), raised to elasticity; 1 when the reference was
// not sampled.
func hostFactor(s samples) float64 {
	walk, alloc := s["harness.host_walk_ms"], s["harness.host_alloc_ms"]
	if len(walk) == 0 || len(alloc) == 0 {
		return 1
	}
	ref := math.Sqrt(bestDecile(walk, "lower") / nominalWalkMs * bestDecile(alloc, "lower") / nominalAllocMs)
	return math.Pow(ref, elasticity)
}
