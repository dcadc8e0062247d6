package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/netbench"
	"repro/internal/ppc"
	"repro/internal/randprog"
)

// TestInterferenceOracle holds the relations packCut packs slots with —
// the exact interference relation and its two halves, the code-sharing
// relation and the figure-13 naive relation — to their position-list
// reference, pair by pair, on every cut of the six netbench PPS at D=2..10
// and of random programs at D=2, 3 and 5, in all three transmission modes.
func TestInterferenceOracle(t *testing.T) {
	modes := []core.TxMode{core.TxPacked, core.TxNaiveUnified, core.TxNaiveInterference}
	check := func(label string, a *core.Analysis, degrees []int) int {
		pairs := 0
		for _, d := range degrees {
			for _, tx := range modes {
				n, err := core.CheckInterference(a, core.Options{Stages: d, Tx: tx})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				pairs += n
			}
		}
		return pairs
	}
	pairs := 0
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
		pairs += check(name, a, []int{2, 3, 4, 5, 6, 7, 8, 9, 10})
	}
	for seed := int64(0); seed < 40; seed++ {
		prog, err := ppc.Compile(randprog.Generate(seed, randprog.DefaultConfig()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a, err := core.Analyze(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		pairs += check(fmt.Sprintf("seed %d", seed), a, []int{2, 3, 5})
	}
	t.Logf("%d object pairs compared", pairs)
}
