// Package bitset provides a dense bit set used by the dataflow analyses.
package bitset

import "math/bits"

// Set is a fixed-capacity bit set. The zero value is unusable; create sets
// with New.
type Set struct {
	words []uint64
	n     int
}

// New returns a set with capacity for n bits, all clear.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// NewSets returns k sets with capacity for n bits each, all clear, carved
// from one allocation.
func NewSets(k, n int) []Set {
	w := (n + 63) / 64
	words, sets := make([]uint64, k*w), make([]Set, k)
	for i := range sets {
		sets[i] = Set{words: words[i*w : (i+1)*w : (i+1)*w], n: n}
	}
	return sets
}

// Len returns the capacity in bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i.
func (s *Set) Set(i int) { s.words[i/64] |= 1 << (uint(i) % 64) }

// Has reports whether bit i is set.
func (s *Set) Has(i int) bool { return s.words[i/64]&(1<<(uint(i)%64)) != 0 }

// Copy returns an independent copy of s.
func (s *Set) Copy() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Reset clears every bit, keeping the capacity.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// CopyFrom overwrites s with the contents of o (same capacity required).
func (s *Set) CopyFrom(o *Set) {
	copy(s.words, o.words)
}

// Union sets s = s ∪ o and reports whether s changed.
func (s *Set) Union(o *Set) bool {
	changed := false
	for i, w := range o.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Diff sets s = s \ o.
func (s *Set) Diff(o *Set) {
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Equal reports whether s and o hold the same bits.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// Slice returns the set bits in ascending order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}
