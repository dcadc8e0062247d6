package costmodel

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"
)

// verdict unpacks a plan over d stages: which cuts its fuse mask un-makes,
// and how many units that leaves.
func verdict(p FusionPlan, d int) (fuse []bool, units int) {
	fuse = make([]bool, max(d-1, 0))
	for k := range fuse {
		fuse[k] = p.Fuse>>k&1 == 1
	}
	return fuse, d - bits.OnesCount64(p.Fuse)
}

// TestPlanFusionSingleCoreFusesEverything: with one core there is no
// pipeline parallelism to buy, so every ring is pure tax and the whole
// pipeline collapses to one unit.
func TestPlanFusionSingleCoreFusesEverything(t *testing.T) {
	p := PlanFusion([]float64{100, 100, 100, 100}, nil, nil, 1500, 1)
	fuse, units := verdict(p, 4)
	if units != 1 {
		t.Fatalf("units = %d, want 1 (everything fused on one core)", units)
	}
	for k, f := range fuse {
		if !f {
			t.Errorf("cut %d not fused on a single core", k)
		}
	}
	if len(p.Why) != 3 {
		t.Fatalf("got %d verdicts, want 3", len(p.Why))
	}
	for k, why := range p.Why {
		if why == "" {
			t.Errorf("cut %d verdict has empty rationale", k)
		}
	}
}

// TestPlanFusionCheapRingsKeepCuts: balanced stages whose per-stage work
// dwarfs the sync cost should keep every cut on a host with enough cores
// — that is exactly when pipelining pays.
func TestPlanFusionCheapRingsKeepCuts(t *testing.T) {
	fuse, units := verdict(PlanFusion([]float64{10_000, 10_000, 10_000, 10_000}, nil, nil, 100, 8), 4)
	if units != 4 {
		t.Fatalf("units = %d, want 4 (no fusion when rings are cheap)", units)
	}
	for k, f := range fuse {
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
	fuse, units := verdict(PlanFusion([]float64{10_000, 50, 10_000}, nil, nil, 1500, 4), 3)
	if units != 2 {
		t.Fatalf("units = %d, want 2 (tiny stage folded, heavy cut kept)", units)
	}
	if fuse[0] == fuse[1] {
		t.Fatalf("want exactly one cut around the 50ns stage fused: %v", fuse)
	}
}

// TestPlanFusionDegenerateInputs: single stage and zero cores must not
// panic and must return a sane empty/clamped plan.
func TestPlanFusionDegenerateInputs(t *testing.T) {
	for _, stages := range [][]float64{{100}, nil} {
		if p := PlanFusion(stages, nil, nil, 1500, 0); p.Fuse != 0 || len(p.Why) != 0 {
			t.Fatalf("%d-stage plan not empty: %+v", len(stages), p)
		}
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
			fuse, units := verdict(p, 4)
			if fuse[1] || !strings.Contains(p.Why[1], "shard junction") {
				t.Errorf("cores %d sync %v: junction verdict %q", cores, sync, p.Why[1])
			}
			if cores == 1 && !(fuse[0] && fuse[2] && units == 2) {
				t.Errorf("sync %v: one core must fuse both aligned cuts; got %v", sync, fuse)
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
	if fuse, units := verdict(PlanFusion(stages, nil, nil, sync, 2), 4); units == 1 {
		t.Errorf("unsharded on 2 cores fused everything: %v", fuse)
	}
	p := PlanFusion(stages, nil, []int{2, 2, 2, 2}, sync, 2)
	if fuse, units := verdict(p, 4); units != 1 {
		t.Errorf("2 lanes on 2 cores: %d units, want 1 (%v)", units, fuse)
	}
	for _, why := range p.Why {
		if !strings.Contains(why, "2 core(s) shared by 2 lanes") {
			t.Errorf("verdict does not say how many lanes share the cores: %q", why)
		}
	}
	if fuse, units := verdict(PlanFusion(stages, nil, []int{2, 2, 2, 2}, sync, 8), 4); units != 4 {
		t.Errorf("2 lanes on 8 cores: %d units, want 4 (%v)", units, fuse)
	}
}

// TestPlanFusionDropsTheFusedCutsTransmission: a merged unit does not pay for
// the cut it swallowed. Two 300-unit stages on two cores keep their cut when
// the merge is priced at 600 (pipe 300+8 against 600), and fuse it when 320
// of those 600 are the cut's own send and receive (280 against 308).
func TestPlanFusionDropsTheFusedCutsTransmission(t *testing.T) {
	stages, sync := []float64{300, 300}, 8.0
	if p := PlanFusion(stages, nil, nil, sync, 2); p.Fuse != 0 {
		t.Fatalf("fused without a transmission share: %v", p.Why)
	}
	p := PlanFusion(stages, []float64{320}, nil, sync, 2)
	if p.Fuse != 1 || !strings.Contains(p.Why[0], "308 -> 280") {
		t.Fatalf("cut share 320 not dropped from the merge: %v", p.Why)
	}
}

// TestPlanFusionSearchCap: the search covers pipelines of up to
// maxSearchStages stages — on one core all twelve fuse — and above it values
// nothing: every cut is kept, and each verdict names the cap.
func TestPlanFusionSearchCap(t *testing.T) {
	flat := func(d int) []float64 {
		stages := make([]float64, d)
		for i := range stages {
			stages[i] = 100
		}
		return stages
	}
	if p := PlanFusion(flat(maxSearchStages), nil, nil, 1500, 1); p.Fuse != 1<<(maxSearchStages-1)-1 {
		t.Errorf("D=%d on one core: mask %b, want every cut fused", maxSearchStages, p.Fuse)
	}
	p := PlanFusion(flat(maxSearchStages+1), nil, nil, 1500, 1)
	if p.Fuse != 0 || len(p.Why) != maxSearchStages {
		t.Fatalf("D=%d: mask %b with %d verdicts, want no cut fused and %d verdicts",
			maxSearchStages+1, p.Fuse, len(p.Why), maxSearchStages)
	}
	for _, why := range p.Why {
		if !strings.Contains(why, fmt.Sprintf("cap of %d", maxSearchStages)) {
			t.Errorf("verdict above the cap does not name it: %q", why)
		}
	}
}

// BenchmarkPlanFusion: one verdict at D=4 and at the search's cap, where it
// prices 2,048 masks — two lanes on eight cores, so no junction prunes any.
func BenchmarkPlanFusion(b *testing.B) {
	for _, d := range []int{4, maxSearchStages} {
		stages, cuts, widths := make([]float64, d), make([]float64, d-1), make([]int, d)
		for i := range stages {
			stages[i], widths[i] = float64(100+37*i%50), 2
		}
		for k := range cuts {
			cuts[k] = 10
		}
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				PlanFusion(stages, cuts, widths, 4, 8)
			}
		})
	}
}
