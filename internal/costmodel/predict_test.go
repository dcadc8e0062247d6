package costmodel

import "testing"

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
