package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/netbench"
	"repro/internal/ppc"
	"repro/internal/randprog"
)

// TestWindowedCutsMatchWholeNetwork holds every cut search to the search on
// the whole flow network it replaced — the same canonical source side, cost,
// weight, feasibility and iteration count — on the six netbench PPS at
// D=2..10, at the default ε and at a tight and a loose one, and on 100
// random programs at D=2..5. The log line is how much of each program's
// network the widest window held.
func TestWindowedCutsMatchWholeNetwork(t *testing.T) {
	check := func(label string, a *core.Analysis, opts core.Options) int {
		_, widest, err := core.CheckWindowedCuts(a, opts)
		if err != nil {
			t.Fatalf("%s ε=%g: %v", label, opts.Epsilon, err)
		}
		return widest
	}
	for _, name := range []string{"RX", "IPv4", "Scheduler", "QM", "TX", "IP(v4)"} {
		pps, _ := netbench.ByName(name)
		prog, err := pps.Compile()
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Analyze(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		widest := 0
		for d := 2; d <= 10; d++ {
			for _, eps := range []float64{0, 0.01, 0.25} {
				widest = max(widest, check(fmt.Sprintf("%s D=%d", name, d), a, core.Options{Stages: d, Epsilon: eps}))
			}
		}
		t.Logf("%s: widest window %d of %d nodes", name, widest, core.AnalysisNodes(a))
	}
	for seed := int64(0); seed < 100; seed++ {
		prog, err := ppc.Compile(randprog.Generate(seed, randprog.DefaultConfig()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a, err := core.Analyze(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		for d := 2; d <= 5; d++ {
			check(fmt.Sprintf("seed %d D=%d", seed, d), a, core.Options{Stages: d})
		}
	}
}
