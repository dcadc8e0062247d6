package bitset

import (
	"testing"
	"testing/quick"
)

func TestSetClearHas(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 63, 64, 127, 129} {
		s.Set(i)
	}
	for _, i := range []int{0, 63, 64, 127, 129} {
		if !s.Has(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if s.Has(1) || s.Has(128) {
		t.Error("unset bits reported set")
	}
	if s.Count() != 5 {
		t.Errorf("Count = %d, want 5", s.Count())
	}
}

func TestUnionDiffIntersect(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Set(1)
	a.Set(50)
	b.Set(50)
	b.Set(99)
	changed := a.Union(b)
	if !changed || !a.Has(99) || a.Count() != 3 {
		t.Error("Union wrong")
	}
	if a.Union(b) {
		t.Error("Union reported change on no-op")
	}
	a.Diff(b)
	if a.Has(50) || a.Has(99) || !a.Has(1) || a.Count() != 1 {
		t.Error("Diff wrong")
	}
}

func TestCopyIndependence(t *testing.T) {
	a := New(64)
	a.Set(3)
	b := a.Copy()
	b.Set(4)
	if a.Has(4) {
		t.Error("Copy shares storage")
	}
	if !a.Equal(a.Copy()) {
		t.Error("Equal false negative")
	}
	if a.Equal(b) {
		t.Error("Equal false positive")
	}
	if a.Equal(New(65)) {
		t.Error("Equal ignores capacity")
	}
}

func TestForEachAndSlice(t *testing.T) {
	s := New(200)
	want := []int{0, 5, 64, 65, 199}
	for _, i := range want {
		s.Set(i)
	}
	got := s.Slice()
	if len(got) != len(want) {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
}

func TestQuickSetHasRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New(1 << 16)
		seen := make(map[int]bool)
		for _, r := range raw {
			s.Set(int(r))
			seen[int(r)] = true
		}
		for i := 0; i < s.Len(); i += 97 {
			if s.Has(i) != seen[i] {
				return false
			}
		}
		return s.Count() == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
