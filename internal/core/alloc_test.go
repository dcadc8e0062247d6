package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netbench"
	"repro/internal/ppc"
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

// TestCompileAnalyzeAllocBudget counts what the front half of the compiler
// allocates for one pass over the six distinct PPS sources: ppc.Compile and
// Analyze of each. Before the analysis tables became dense it read 68264
// allocations per pass (68243 as this test counts them), and 57139 with only
// the lexer's operator tables built once (go1.24.0); with them it reads 14171
// (14194 under -race). The ceiling sits a third above that, so it catches a
// return of per-token tables, per-instruction maps or edge-at-a-time
// adjacency long before it catches noise, and well under the 40000 the
// change was held to.
func TestCompileAnalyzeAllocBudget(t *testing.T) {
	var srcs []string
	for _, name := range []string{"RX", "IPv4", "Scheduler", "QM", "TX", "IP(v4)"} {
		p, _ := netbench.ByName(name)
		srcs = append(srcs, p.Source)
	}
	const ceiling = 19000
	got := testing.AllocsPerRun(5, func() {
		for _, src := range srcs {
			prog, err := ppc.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := core.Analyze(prog, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("six PPS: %.0f allocations per compile+analyze pass (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Errorf("six PPS: %.0f allocations per compile+analyze pass, over the budget of %d", got, ceiling)
	}
}
