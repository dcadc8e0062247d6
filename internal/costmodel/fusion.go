package costmodel

import "fmt"

// FusionDecision values one cut of a realized pipeline: whether fusing it
// is predicted to win, and the human-readable arithmetic behind the call.
// The repro layer surfaces these verbatim in Pipeline.Plan().
type FusionDecision struct {
	// Cut is the 0-based cut index (between stages Cut+1 and Cut+2).
	Cut int
	// Fuse is true when the cut's ring tax exceeds its pipeline-bound
	// gain, so the realizer should merge the two sides into one unit.
	Fuse bool
	// Why states the two-bound comparison that decided the cut.
	Why string
}

// FusionPlan is the valuator's verdict over every cut of a D-stage
// pipeline under a given core budget.
type FusionPlan struct {
	// FuseCuts is the per-cut mask in the runtime.Config.FuseCuts shape.
	FuseCuts []bool
	// Decisions records the per-cut arithmetic, in cut order.
	Decisions []FusionDecision
	// Units is the number of realized execution units (goroutines per
	// replica lane) after fusion: D minus the fused cuts.
	Units int
}

// Predict is the repository's one throughput model: the predicted cost per
// packet, in the unit of its inputs, of a realization given as its execution
// units. unitNs[i] is unit i's summed stage cost, widths[i] its replica
// width (nil or short: 1), syncNs the cost of one ring handoff, cores the
// processors the units share (< 1 is read as 1):
//
//	max(pipe, cpu)
//	pipe = max(unitNs[i]/widths[i]) + syncNs·(units-1)
//	cpu  = (Σ unitNs + syncNs·(units-1)) / cores
//
// syncNs·(units-1) is the handoff-chain tax: with bounded rings and
// steady-state backpressure every boundary's per-packet synchronization
// appears on the end-to-end cadence, so each retained cut charges one sync
// against both bounds — and a single unit, however many stages it fuses,
// pays none. Replication divides only the pipe bound: P replicas of a unit
// retire P packets per unit time, but every packet's work still lands on
// the shared cores. The fusion valuator below, the adaptive loop's
// candidate prior and Plan.PredictedNsPerPkt are all this function.
func Predict(unitNs []float64, widths []int, syncNs float64, cores int) float64 {
	var total, bottleneck float64
	for i, u := range unitNs {
		total += u
		if i < len(widths) && widths[i] > 1 {
			u /= float64(widths[i])
		}
		bottleneck = max(bottleneck, u)
	}
	sync := syncNs * float64(max(len(unitNs)-1, 0))
	return max(bottleneck+sync, (total+sync)/float64(max(cores, 1)))
}

// PlanFusion decides which cuts of a pipeline are worth their ring under
// Predict: a cut pays for its ring only when splitting there lowers the
// prediction — when the pipeline bound it relieves exceeds the
// synchronization tax it adds. The inputs are the per-stage costs
// (nanoseconds or model weight — any consistent unit), the per-handoff
// synchronization cost in the same unit, and the host's usable core count.
// The planner is greedy: starting from the fully split pipeline, it
// repeatedly merges the adjacent-unit pair whose merge most improves the
// predicted cost, until no merge helps. On one core both bounds strictly
// fall with every merge, so everything fuses; with generous cores and
// per-stage work far above sync, no merge helps and every cut survives.
//
// stageNs entries must be non-negative; cores < 1 is treated as 1.
// A single-stage pipeline yields an empty plan.
func PlanFusion(stageNs []float64, ringSyncNs float64, cores int) FusionPlan {
	d := len(stageNs)
	if cores < 1 {
		cores = 1
	}
	plan := FusionPlan{Units: d}
	if d <= 1 {
		return plan
	}
	plan.FuseCuts = make([]bool, d-1)

	// units[i] is the summed cost of the i-th realized unit; cutAfter[i]
	// is the original cut index that ends it (len-1 for the last).
	units := append([]float64(nil), stageNs...)
	cutAfter := make([]int, d)
	for i := range cutAfter {
		cutAfter[i] = i
	}

	merged := map[int]string{} // cut index -> rationale
	trial := make([]float64, 0, d)
	for len(units) > 1 {
		cur := Predict(units, nil, ringSyncNs, cores)
		bestGain, bestAt := 0.0, -1
		var bestCost float64
		for i := 0; i+1 < len(units); i++ {
			trial = append(trial[:0], units[:i]...)
			trial = append(trial, units[i]+units[i+1])
			trial = append(trial, units[i+2:]...)
			if c := Predict(trial, nil, ringSyncNs, cores); cur-c > bestGain {
				bestGain, bestAt, bestCost = cur-c, i, c
			}
		}
		if bestAt < 0 {
			break
		}
		cut := cutAfter[bestAt]
		plan.FuseCuts[cut] = true
		merged[cut] = fmt.Sprintf(
			"fuse cut %d: ring tax %.0f exceeds its pipeline gain (predicted %.0f -> %.0f ns/pkt on %d core(s))",
			cut+1, ringSyncNs, cur, bestCost, cores)
		units[bestAt] += units[bestAt+1]
		units = append(units[:bestAt+1], units[bestAt+2:]...)
		cutAfter = append(cutAfter[:bestAt], cutAfter[bestAt+1:]...)
	}
	plan.Units = len(units)

	for k := 0; k < d-1; k++ {
		dec := FusionDecision{Cut: k, Fuse: plan.FuseCuts[k]}
		if why, ok := merged[k]; ok {
			dec.Why = why
		} else {
			dec.Why = fmt.Sprintf(
				"keep cut %d: its ring tax %.0f buys pipeline parallelism on %d core(s)",
				k+1, ringSyncNs, cores)
		}
		plan.Decisions = append(plan.Decisions, dec)
	}
	return plan
}
