package costmodel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestPredict pins the one throughput model on the properties its callers
// rely on: a single unit pays no handoff tax, replication divides the
// pipeline bound and nothing else, and on one core every merge is a gain.
func TestPredict(t *testing.T) {
	for _, tc := range []struct {
		name   string
		units  []float64
		widths []int
		sync   float64
		cores  int
		want   float64
	}{
		{"one unit pays no sync", []float64{400}, nil, 270, 2, 400},
		{"one unit, cpu-bound is never above it", []float64{400}, nil, 270, 8, 400},
		{"four ringed units, pipe-bound", []float64{100, 100, 100, 100}, nil, 270, 2, 910},
		{"four ringed units, one core: cpu-bound", []float64{100, 100, 100, 100}, nil, 270, 1, 1210},
		{"width divides the pipe bound", []float64{1000, 100}, []int{4, 1}, 10, 8, 260},
		{"width leaves the cpu bound alone", []float64{1000, 100}, []int{4, 1}, 10, 2, 555},
		{"each unit divides by its own width", []float64{1000, 1000}, []int{4, 1}, 10, 8, 1010},
		{"short widths read as 1", []float64{100, 1000}, []int{4}, 10, 8, 1010},
		{"cores below one read as one", []float64{100, 100}, nil, 10, 0, 210},
		{"no units", nil, nil, 270, 2, 0},
	} {
		if got := Predict(tc.units, tc.widths, tc.sync, tc.cores); got != tc.want {
			t.Errorf("%s: Predict(%v, %v, %v, %d) = %v, want %v",
				tc.name, tc.units, tc.widths, tc.sync, tc.cores, got, tc.want)
		}
	}

	// One core: merging any adjacent pair lowers the prediction (sync > 0).
	units := []float64{30, 500, 70, 5, 900}
	for len(units) > 1 {
		cur := Predict(units, nil, 50, 1)
		for i := 0; i+1 < len(units); i++ {
			if c := Predict(mergeAt(units, i), nil, 50, 1); c >= cur {
				t.Errorf("1 core: merging units %d,%d of %v predicts %v, not below %v", i, i+1, units, c, cur)
			}
		}
		units = mergeAt(units, 0)
	}
}

// mergeAt returns units with entries i and i+1 summed into one.
func mergeAt(units []float64, i int) []float64 {
	out := append([]float64(nil), units[:i]...)
	out = append(out, units[i]+units[i+1])
	return append(out, units[i+2:]...)
}

// randomCut draws a pipeline for the valuator: 2..10 stages, each at width 1
// or the trial's shard width, a ring tax and a core budget. Each cut's
// transmission share is at most half of either side, so a stage between two
// fused cuts keeps a non-negative cost.
func randomCut(rng *rand.Rand) (stages, cuts []float64, widths []int, sync float64, cores int) {
	stages = make([]float64, 2+rng.Intn(9))
	widths = make([]int, len(stages))
	shards := 1 << rng.Intn(3)
	for i := range stages {
		stages[i] = float64(1 + rng.Intn(2000))
		widths[i] = 1
		if rng.Intn(4) > 0 {
			widths[i] = shards
		}
	}
	cuts = make([]float64, len(stages)-1)
	for k := range cuts {
		cuts[k] = float64(rng.Intn(int(min(stages[k], stages[k+1]))/2 + 1))
	}
	return stages, cuts, widths, float64(1 + rng.Intn(600)), 1 + rng.Intn(8)
}

// TestPlanFusionIsLocalOptimumOfPredict: the valuator and the predictor are
// the same model, so the mask PlanFusion returns must be a local optimum of
// Predict under the replica widths it was given — no single further merge
// of adjacent units of one width predicts lower, no cut between different
// widths is merged — and every merge it reports must have lowered the
// prediction when it was made (the before -> after figures in its
// rationale).
func TestPlanFusionIsLocalOptimumOfPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		stages, cuts, widths, sync, cores := randomCut(rng)
		plan := PlanFusion(stages, cuts, widths, sync, cores)
		fuseCuts, planUnits := verdict(plan, len(stages))

		// lastCut[i] is the original cut after unit i (the merge across it
		// would save cuts[lastCut[i]]).
		units, lanes, lastCut := []float64{stages[0]}, []int{widths[0]}, []int{0}
		for k, fuse := range fuseCuts {
			switch {
			case fuse && widths[k] != widths[k+1]:
				t.Fatalf("%v widths %v: cut %d fused across a junction", stages, widths, k+1)
			case fuse:
				units[len(units)-1] += stages[k+1] - cuts[k]
				lastCut[len(lastCut)-1] = k + 1
			default:
				units, lanes, lastCut = append(units, stages[k+1]), append(lanes, widths[k+1]), append(lastCut, k+1)
			}
		}
		if len(units) != planUnits {
			t.Fatalf("%v sync %v cores %d: mask %v folds to %d units, plan says %d",
				stages, sync, cores, fuseCuts, len(units), planUnits)
		}
		final := Predict(units, lanes, sync, cores)
		for i := 0; i+1 < len(units); i++ {
			if lanes[i] != lanes[i+1] {
				continue
			}
			trial := mergeAt(units, i)
			trial[i] -= cuts[lastCut[i]]
			if c := Predict(trial, slices.Delete(slices.Clone(lanes), i, i+1), sync, cores); c < final {
				t.Errorf("%v widths %v sync %v cores %d: mask %v predicts %v, but merging units %d,%d predicts %v",
					stages, widths, sync, cores, fuseCuts, final, i, i+1, c)
			}
		}
		split := Predict(stages, widths, sync, cores)
		for k, why := range plan.Why {
			if !fuseCuts[k] {
				continue
			}
			var cut int
			var tax, before, after float64
			if _, err := fmt.Sscanf(why,
				"fuse cut %d: ring tax %f exceeds its pipeline gain (predicted %f -> %f ns/pkt on ",
				&cut, &tax, &before, &after); err != nil {
				t.Fatalf("rationale %q: %v", why, err)
			}
			if after > before || before > split+0.5 || after < final-0.5 {
				t.Errorf("%v widths %v sync %v cores %d: %q does not lie on a descent from %v to %v",
					stages, widths, sync, cores, why, split, final)
			}
		}
	}
}
