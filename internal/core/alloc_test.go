package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netbench"
)

// TestPartitionAllocBudget counts what one Partition allocates, because
// counts repeat exactly where milliseconds do not. Before the per-cut work
// was reduced to what depends on the cut (ISSUE 24) IPv4 read 16798
// allocations at D=4 and 38069 at D=9 (go1.24.0); the ceilings are 60 % of
// those. With that change it reads 1427 and 2704 (a handful more under
// -race), so the ceiling catches a return of the old per-stage function
// clone or per-cut adjacency long before it catches noise.
func TestPartitionAllocBudget(t *testing.T) {
	p, _ := netbench.ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		degree  int
		ceiling float64
	}{{4, 10078}, {9, 22841}} {
		got := testing.AllocsPerRun(10, func() {
			if _, err := a.Partition(core.Options{Stages: tc.degree}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("IPv4 D=%d: %.0f allocations per Partition (ceiling %.0f)", tc.degree, got, tc.ceiling)
		if got > tc.ceiling {
			t.Errorf("IPv4 D=%d: %.0f allocations per Partition, over the budget of %.0f", tc.degree, got, tc.ceiling)
		}
	}
}
