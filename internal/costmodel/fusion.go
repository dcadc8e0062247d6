package costmodel

import (
	"fmt"
	"slices"
)

// FusionPlan is the valuator's opinion of every cut of a D-stage pipeline
// under a given core budget: which cuts to un-make, and why each is fused or
// kept.
type FusionPlan struct {
	// Fuse is the verdict as a fuse mask, the address of a served shape: bit
	// k set un-makes cut k+1 (between stages k+1 and k+2).
	Fuse uint64
	// Why records the verdict's arithmetic per cut, in cut order: the
	// two-bound comparison that fused or kept it. The repro layer surfaces
	// these verbatim in Pipeline.Plan().
	Why []string
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
// the shared cores. The fusion valuator below and Plan.PredictedNsPerPkt are
// both this function.
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

// PlanFusion values the cuts of a pipeline under Predict: a cut pays for its
// ring only when splitting there lowers the prediction — when the pipeline
// bound it relieves exceeds the synchronization tax it adds. The inputs are
// Predict's, per stage: the stage costs (nanoseconds or model weight — any
// consistent unit), the replica width the layout gives each stage (nil or
// short: 1), the per-handoff synchronization cost in the same unit, and the
// host's usable core count. cutNs[k] is the transmission share of cut k+1
// inside the two stage costs around it — the send on one side, the receive
// on the other — which a merge across the cut does not pay: a fused cut is
// not realized, so the merged unit costs the sum of its sides less that share
// (nil or short: 0). Widths matter because lanes divide only the pipe bound:
// two lanes on two cores already own both, so a ring inside a lane buys no
// parallelism and the cpu bound, which every merge lowers, decides. A cut
// between stages of different width is a shard junction and is never merged.
// The planner is greedy: starting from the fully split pipeline, it
// repeatedly merges the adjacent-unit pair whose merge predicts lowest, and
// stops at the first step where no merge lowers the prediction; the cuts it
// merged across are the verdict's fuse mask. On one core both bounds
// strictly fall with every merge, so everything fuses; with generous cores
// and per-stage work far above sync, no merge helps and every cut survives.
//
// stageNs entries must be non-negative; cores < 1 is treated as 1.
// A single-stage pipeline yields an empty plan.
func PlanFusion(stageNs, cutNs []float64, widths []int, ringSyncNs float64, cores int) FusionPlan {
	d := len(stageNs)
	if cores < 1 {
		cores = 1
	}
	var plan FusionPlan
	if d <= 1 {
		return plan
	}

	// units[i] is the summed cost of the i-th realized unit, lanes[i] its
	// replica width; cutAfter[i] is the original cut index that ends it
	// (len-1 for the last).
	units := append([]float64(nil), stageNs...)
	lanes, cutAfter := make([]int, d), make([]int, d)
	for i := range units {
		lanes[i], cutAfter[i] = 1, i
		if i < len(widths) && widths[i] > 1 {
			lanes[i] = widths[i]
		}
	}
	host := fmt.Sprintf("%d core(s)", cores) // what every verdict says the units share
	if w := slices.Max(lanes); w > 1 {
		host += fmt.Sprintf(" shared by %d lanes", w)
	}
	// saved is what merging across original cut k takes off the two sides' sum.
	saved := func(k int) float64 {
		if k < len(cutNs) {
			return cutNs[k]
		}
		return 0
	}
	// merged prices the realization with units i and i+1 (of one width) as one.
	trialNs, trialLanes := make([]float64, 0, d), make([]int, 0, d)
	merged := func(i int) float64 {
		trialNs = append(append(trialNs[:0], units[:i+1]...), units[i+2:]...)
		trialNs[i] += units[i+1] - saved(cutAfter[i])
		trialLanes = append(append(trialLanes[:0], lanes[:i+1]...), lanes[i+2:]...)
		return Predict(trialNs, trialLanes, ringSyncNs, cores)
	}

	plan.Why = make([]string, d-1)
	for {
		cur := Predict(units, lanes, ringSyncNs, cores)
		bestGain, bestAt := 0.0, -1
		var bestCost float64
		for i := 0; i+1 < len(units); i++ {
			if lanes[i] != lanes[i+1] {
				continue
			}
			if c := merged(i); cur-c > bestGain {
				bestGain, bestAt, bestCost = cur-c, i, c
			}
		}
		if bestAt < 0 {
			// No merge lowers the prediction: the verdict. What each surviving
			// ring buys: the price of the realization without it.
			for i := 0; i+1 < len(units); i++ {
				cut := cutAfter[i]
				if lanes[i] != lanes[i+1] {
					plan.Why[cut] = fmt.Sprintf("keep cut %d: shard junction (replica widths differ across the cut); fusion needs aligned lanes", cut+1)
					continue
				}
				plan.Why[cut] = fmt.Sprintf(
					"keep cut %d: its ring tax %.0f buys pipeline parallelism (predicted %.0f ns/pkt with it, %.0f fused, on %s)",
					cut+1, ringSyncNs, cur, merged(i), host)
			}
			return plan
		}
		cut := cutAfter[bestAt]
		plan.Fuse |= 1 << cut
		plan.Why[cut] = fmt.Sprintf(
			"fuse cut %d: ring tax %.0f exceeds its pipeline gain (predicted %.0f -> %.0f ns/pkt on %s)",
			cut+1, ringSyncNs, cur, bestCost, host)
		units[bestAt] += units[bestAt+1] - saved(cut)
		units = slices.Delete(units, bestAt+1, bestAt+2)
		lanes = slices.Delete(lanes, bestAt+1, bestAt+2)
		cutAfter = slices.Delete(cutAfter, bestAt, bestAt+1)
	}
}
