package maxflow

import (
	"math"
	"testing"
)

// TestInfHeadroomArithmetic pins the overflow contract: MaxInfEdges
// infinite edges can be summed in an int64, one more could not, and Inf is
// still astronomically larger than any finite unit weight the cost model
// can produce.
func TestInfHeadroomArithmetic(t *testing.T) {
	if Inf <= 0 {
		t.Fatal("Inf must be positive")
	}
	if Inf <= 1<<40 {
		t.Errorf("Inf = %d is too small to dominate finite capacities", Inf)
	}
	if int64(MaxInfEdges) > math.MaxInt64/Inf {
		t.Errorf("MaxInfEdges*Inf overflows: %d * %d", MaxInfEdges, Inf)
	}
	// One more edge must be able to overflow (otherwise the guard is
	// stricter than necessary for no reason).
	if int64(MaxInfEdges+1) <= math.MaxInt64/Inf {
		t.Errorf("guard is too strict: %d+1 infinite edges still fit", MaxInfEdges)
	}
}

// TestAddEdgeOverflowGuard fills a network up to exactly MaxInfEdges
// infinite edges (allowed) and requires the next one to panic.
func TestAddEdgeOverflowGuard(t *testing.T) {
	nw := New(2, 0, 1)
	for i := 0; i < MaxInfEdges; i++ {
		nw.AddEdge(0, 1, Inf)
	}
	if nw.InfEdges() != MaxInfEdges {
		t.Fatalf("InfEdges = %d, want %d", nw.InfEdges(), MaxInfEdges)
	}
	defer func() {
		if recover() == nil {
			t.Error("AddEdge beyond MaxInfEdges did not panic")
		}
	}()
	nw.AddEdge(0, 1, Inf)
}

// TestAddEdgeFiniteNotCounted: finite edges never consume headroom.
func TestAddEdgeFiniteNotCounted(t *testing.T) {
	nw := New(2, 0, 1)
	nw.AddEdge(0, 1, Inf-1)
	nw.AddEdge(0, 1, 42)
	if nw.InfEdges() != 0 {
		t.Errorf("finite capacities counted as infinite: InfEdges = %d", nw.InfEdges())
	}
	nw.AddEdge(0, 1, Inf)
	if nw.InfEdges() != 1 {
		t.Errorf("InfEdges = %d, want 1", nw.InfEdges())
	}
}
