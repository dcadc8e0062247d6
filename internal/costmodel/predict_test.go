package costmodel

import (
	"fmt"
	"math/rand"
	"strings"
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

// fold returns the units mask leaves of the stages, with their widths: a set
// bit k merges stage k+2 into the unit before it, less the cut's share.
func fold(stages, cuts []float64, widths []int, mask uint64) (units []float64, lanes []int) {
	units, lanes = []float64{stages[0]}, []int{widths[0]}
	for k := range len(stages) - 1 {
		if mask>>k&1 == 1 {
			units[len(units)-1] += stages[k+1] - cuts[k]
		} else {
			units, lanes = append(units, stages[k+1]), append(lanes, widths[k+1])
		}
	}
	return units, lanes
}

// TestPlanFusionIsArgminOfPredict: the valuator and the predictor are the
// same model, so of every fuse mask that merges no shard junction, the one
// PlanFusion returns must price lowest under Predict — the lowest such mask
// on a tie — and it must merge no junction itself. Each cut's rationale must
// quote Predict of the verdict and of the verdict with that cut flipped.
// Every mask is folded here, independently of the valuator.
func TestPlanFusionIsArgminOfPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20_000; trial++ {
		stages, cuts, widths, sync, cores := randomCut(rng)
		d := len(stages)
		price := func(mask uint64) float64 {
			units, lanes := fold(stages, cuts, widths, mask)
			return Predict(units, lanes, sync, cores)
		}
		var junctions uint64
		for k := range d - 1 {
			if widths[k] != widths[k+1] {
				junctions |= 1 << k
			}
		}
		plan := PlanFusion(stages, cuts, widths, sync, cores)
		input := fmt.Sprintf("%v cuts %v widths %v sync %v cores %d", stages, cuts, widths, sync, cores)
		if plan.Fuse&junctions != 0 || plan.Fuse >= 1<<(d-1) {
			t.Fatalf("%s: mask %b fuses a junction or a cut past the last", input, plan.Fuse)
		}
		chosen := price(plan.Fuse)
		for mask := uint64(0); mask < 1<<(d-1); mask++ {
			if c := price(mask); mask&junctions == 0 && (c < chosen || c == chosen && mask < plan.Fuse) {
				t.Fatalf("%s: verdict %b prices %v, mask %b prices %v", input, plan.Fuse, chosen, mask, c)
			}
		}
		for k, why := range plan.Why {
			var cut int
			var tax, a, b float64
			var err error
			want := fmt.Sprintf("%.0f %.0f", price(plan.Fuse^1<<k), chosen)
			switch {
			case junctions>>k&1 == 1:
				if !strings.Contains(why, "shard junction") {
					t.Errorf("%s: junction verdict %q", input, why)
				}
				continue
			case plan.Fuse>>k&1 == 1:
				_, err = fmt.Sscanf(why, "fuse cut %d: ring tax %f exceeds its pipeline gain (predicted %f -> %f ns/pkt on ",
					&cut, &tax, &a, &b)
			default:
				_, err = fmt.Sscanf(why, "keep cut %d: its ring tax %f buys pipeline parallelism (predicted %f ns/pkt with it, %f fused, on ",
					&cut, &tax, &b, &a)
			}
			if err != nil || cut != k+1 {
				t.Fatalf("%s: rationale %q of cut %d: %v", input, why, k+1, err)
			}
			if got := fmt.Sprintf("%.0f %.0f", a, b); got != want {
				t.Errorf("%s: %q quotes flipped/chosen %s, Predict says %s", input, why, got, want)
			}
		}
	}
}
