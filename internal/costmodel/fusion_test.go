package costmodel

import (
	"strings"
	"testing"
)

// TestPlanFusionSingleCoreFusesEverything: with one core there is no
// pipeline parallelism to buy, so every ring is pure tax and the whole
// pipeline collapses to one unit.
func TestPlanFusionSingleCoreFusesEverything(t *testing.T) {
	p := PlanFusion([]float64{100, 100, 100, 100}, nil, nil, 1500, 1)
	if p.Units != 1 {
		t.Fatalf("Units = %d, want 1 (everything fused on one core)", p.Units)
	}
	for k, f := range p.FuseCuts {
		if !f {
			t.Errorf("cut %d not fused on a single core", k)
		}
	}
	if len(p.Decisions) != 3 {
		t.Fatalf("got %d decisions, want 3", len(p.Decisions))
	}
	for _, d := range p.Decisions {
		if d.Why == "" {
			t.Errorf("cut %d decision has empty rationale", d.Cut)
		}
	}
}

// TestPlanFusionCheapRingsKeepCuts: balanced stages whose per-stage work
// dwarfs the sync cost should keep every cut on a host with enough cores
// — that is exactly when pipelining pays.
func TestPlanFusionCheapRingsKeepCuts(t *testing.T) {
	p := PlanFusion([]float64{10_000, 10_000, 10_000, 10_000}, nil, nil, 100, 8)
	if p.Units != 4 {
		t.Fatalf("Units = %d, want 4 (no fusion when rings are cheap)", p.Units)
	}
	for k, f := range p.FuseCuts {
		if f {
			t.Errorf("cut %d fused despite cheap rings and spare cores", k)
		}
	}
}

// TestPlanFusionFoldsTinyStageIntoNeighbor: a stage far below the
// bottleneck cannot pay for its ring; it should fold into a neighbor
// while the expensive balanced cut survives.
func TestPlanFusionFoldsTinyStageIntoNeighbor(t *testing.T) {
	// Stages: 10000, 50, 10000. The 50ns stage's two rings buy nothing
	// (the bottleneck stays 10000 either way); at least one of its cuts
	// must fuse, and the pipeline must keep at least two units so the
	// two heavy stages still overlap.
	p := PlanFusion([]float64{10_000, 50, 10_000}, nil, nil, 1500, 4)
	if p.Units != 2 {
		t.Fatalf("Units = %d, want 2 (tiny stage folded, heavy cut kept)", p.Units)
	}
	if !p.FuseCuts[0] && !p.FuseCuts[1] {
		t.Fatalf("neither cut around the 50ns stage fused: %v", p.FuseCuts)
	}
	if p.FuseCuts[0] && p.FuseCuts[1] {
		t.Fatalf("both cuts fused, losing the heavy stages' overlap: %v", p.FuseCuts)
	}
}

// TestPlanFusionDegenerateInputs: single stage and zero cores must not
// panic and must return a sane empty/clamped plan.
func TestPlanFusionDegenerateInputs(t *testing.T) {
	p := PlanFusion([]float64{100}, nil, nil, 1500, 0)
	if p.Units != 1 || len(p.FuseCuts) != 0 || len(p.Decisions) != 0 {
		t.Fatalf("single-stage plan not empty: %+v", p)
	}
	p = PlanFusion(nil, nil, nil, 1500, 4)
	if p.Units != 0 || p.FuseCuts != nil {
		t.Fatalf("nil-stage plan not empty: %+v", p)
	}
}

// TestPlanFusionNeverMergesAcrossWidths: a cut between stages of different
// replica width is a shard junction — a fused unit is one goroutine per
// lane — so whatever the cores and the ring tax, the valuator keeps it and
// says why, while the cuts on either side of it fuse on their merits.
func TestPlanFusionNeverMergesAcrossWidths(t *testing.T) {
	stages, widths := []float64{100, 100, 100, 100}, []int{2, 2, 1, 1}
	for cores := 1; cores <= 8; cores++ {
		for _, sync := range []float64{1, 50, 270, 5000} {
			p := PlanFusion(stages, nil, widths, sync, cores)
			if p.FuseCuts[1] || !strings.Contains(p.Decisions[1].Why, "shard junction") {
				t.Errorf("cores %d sync %v: junction verdict %+v", cores, sync, p.Decisions[1])
			}
			if cores == 1 && !(p.FuseCuts[0] && p.FuseCuts[2] && p.Units == 2) {
				t.Errorf("sync %v: one core must fuse both aligned cuts; got %v", sync, p.FuseCuts)
			}
		}
	}
}

// TestPlanFusionCountsLanesAgainstCores: two lanes on two cores already own
// both, so a ring inside a lane buys no parallelism and every cut fuses,
// where the same stages unsharded keep their cuts; with cores to spare the
// lanes keep them too.
func TestPlanFusionCountsLanesAgainstCores(t *testing.T) {
	stages, sync := []float64{300, 300, 300, 300}, 8.0
	if p := PlanFusion(stages, nil, nil, sync, 2); p.Units == 1 {
		t.Errorf("unsharded on 2 cores fused everything: %v", p.FuseCuts)
	}
	p := PlanFusion(stages, nil, []int{2, 2, 2, 2}, sync, 2)
	if p.Units != 1 {
		t.Errorf("2 lanes on 2 cores: %d units, want 1 (%v)", p.Units, p.FuseCuts)
	}
	for _, d := range p.Decisions {
		if !strings.Contains(d.Why, "2 core(s) shared by 2 lanes") {
			t.Errorf("verdict does not say how many lanes share the cores: %q", d.Why)
		}
	}
	if p := PlanFusion(stages, nil, []int{2, 2, 2, 2}, sync, 8); p.Units != 4 {
		t.Errorf("2 lanes on 8 cores: %d units, want 4 (%v)", p.Units, p.FuseCuts)
	}
}

// TestPlanFusionDropsTheFusedCutsTransmission: a merged unit does not pay for
// the cut it swallowed. Two 300-unit stages on two cores keep their cut when
// the merge is priced at 600 (pipe 300+8 against 600), and fuse it when 320
// of those 600 are the cut's own send and receive (280 against 308).
func TestPlanFusionDropsTheFusedCutsTransmission(t *testing.T) {
	stages, sync := []float64{300, 300}, 8.0
	if p := PlanFusion(stages, nil, nil, sync, 2); p.FuseCuts[0] {
		t.Fatalf("fused without a transmission share: %v", p.Decisions)
	}
	p := PlanFusion(stages, []float64{320}, nil, sync, 2)
	if !p.FuseCuts[0] || !strings.Contains(p.Decisions[0].Why, "308 -> 280") {
		t.Fatalf("cut share 320 not dropped from the merge: %v", p.Decisions)
	}
}
