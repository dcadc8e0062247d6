package core_test

import (
	"testing"

	. "repro/internal/core"
	"repro/internal/netbench"
	"repro/internal/ppc"
)

func TestExplorePicksSmallestFittingDegree(t *testing.T) {
	p, _ := netbench.ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// First find the sequential cost, then ask for roughly a third of it.
	one, err := Partition(prog, Options{Stages: 1})
	if err != nil {
		t.Fatal(err)
	}
	budget := one.Report.Seq.Total / 3
	ex, err := Explore(prog, ExploreOptions{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Met {
		t.Fatalf("budget %d not met; candidates: %+v", budget, ex.Candidates)
	}
	if ex.Degree < 2 {
		t.Errorf("a third of sequential cost should need >= 2 stages, got %d", ex.Degree)
	}
	longest := ex.Result.Report.Stages[ex.Result.Report.LongestStage-1].Cost.Total
	if longest > budget {
		t.Errorf("selected degree misses the budget: %d > %d", longest, budget)
	}
	// Minimality: the previous degree must miss the budget.
	if ex.Degree > 1 {
		prev := ex.Candidates[ex.Degree-2]
		if prev.LongestStage <= budget {
			t.Errorf("degree %d already met the budget (%d <= %d); exploration not minimal",
				prev.Degree, prev.LongestStage, budget)
		}
	}
}

func TestExploreTrivialBudget(t *testing.T) {
	prog, _ := ppc.Compile(`pps P { loop { trace(pkt_rx()); } }`)
	ex, err := Explore(prog, ExploreOptions{Budget: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Met || ex.Degree != 1 {
		t.Errorf("a huge budget must select 1 PE, got degree %d met=%v", ex.Degree, ex.Met)
	}
}

func TestExploreImpossibleBudget(t *testing.T) {
	p, _ := netbench.ByName("Scheduler") // loop-carried: cannot split
	prog, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Explore(prog, ExploreOptions{Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Met {
		t.Error("a 5-instruction budget on the Scheduler cannot be met")
	}
	if ex.Result == nil || len(ex.Candidates) != ExplorePEs {
		t.Errorf("best-effort result or candidate log missing: %+v", ex.Candidates)
	}
}

func TestExploreRejectsMissingBudget(t *testing.T) {
	prog, _ := ppc.Compile(`pps P { loop { trace(1); } }`)
	if _, err := Explore(prog, ExploreOptions{}); err == nil {
		t.Error("zero budget accepted")
	}
}
