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
	// Why records the verdict's arithmetic per cut, in cut order: its price
	// against the runner-up with that cut flipped. The repro layer surfaces
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

// maxSearchStages caps the search PlanFusion makes: it prices all 2^(D-1)
// fuse masks, so its cost doubles with every stage. At the cap, 2,048 masks,
// BenchmarkPlanFusion/D=12 takes 0.3 ms on a 2-core x86-64 Xeon.
const maxSearchStages = 12

// PlanFusion values the cuts of a pipeline under Predict: it returns the fuse
// mask that Predict prices lowest. The inputs are Predict's, per stage: the
// stage costs (nanoseconds or model weight — any consistent unit), the
// replica width the layout gives each stage (nil or short: 1), the
// per-handoff synchronization cost in the same unit, and the host's usable
// core count. cutNs[k] is the transmission share of cut k+1 inside the two
// stage costs around it — the send on one side, the receive on the other —
// which a merge across the cut does not pay: a fused cut is not realized, so
// the merged unit costs the sum of its sides less that share (nil or short:
// 0). Widths matter because lanes divide only the pipe bound: two lanes on
// two cores already own both, so a ring inside a lane buys no parallelism
// and the cpu bound, which every merge lowers, decides. A cut between stages
// of different width is a shard junction and is never merged.
//
// The search is exhaustive: every mask that merges no junction is priced, in
// ascending order, and only a strictly lower price replaces the best, so the
// lowest mask wins a tie. Above maxSearchStages stages nothing is priced and
// every cut is kept. Each cut's Why sets the verdict's price against that of
// the same mask with the one cut flipped, its nearest runner-up: "predicted
// A -> B" for a fused cut (A kept, B fused), "B with it, A fused" if kept.
//
// stageNs entries must be non-negative; cores < 1 is treated as 1.
// A single-stage pipeline yields an empty plan.
func PlanFusion(stageNs, cutNs []float64, widths []int, ringSyncNs float64, cores int) FusionPlan {
	d := len(stageNs)
	var plan FusionPlan
	if d <= 1 {
		return plan
	}
	plan.Why = make([]string, d-1)
	if d > maxSearchStages {
		for k := range plan.Why {
			plan.Why[k] = fmt.Sprintf("keep cut %d: unpriced: %d stages exceed the fusion search's cap of %d", k+1, d, maxSearchStages)
		}
		return plan
	}
	cores = max(cores, 1)
	lanes := make([]int, d)
	var junctions uint64 // the cuts between stages of different width
	for i := range lanes {
		lanes[i] = 1
		if i < len(widths) && widths[i] > 1 {
			lanes[i] = widths[i]
		}
		if i > 0 && lanes[i] != lanes[i-1] {
			junctions |= 1 << (i - 1)
		}
	}
	host := fmt.Sprintf("%d core(s)", cores) // what every verdict says the units share
	if w := slices.Max(lanes); w > 1 {
		host += fmt.Sprintf(" shared by %d lanes", w)
	}
	// price folds the stages into the units mask leaves and prices them.
	units, unitLanes := make([]float64, 0, d), make([]int, 0, d)
	price := func(mask uint64) float64 {
		units, unitLanes = append(units[:0], stageNs[0]), append(unitLanes[:0], lanes[0])
		for k := range d - 1 {
			switch {
			case mask>>k&1 == 0:
				units, unitLanes = append(units, stageNs[k+1]), append(unitLanes, lanes[k+1])
			case k < len(cutNs):
				units[len(units)-1] += stageNs[k+1] - cutNs[k]
			default:
				units[len(units)-1] += stageNs[k+1]
			}
		}
		return Predict(units, unitLanes, ringSyncNs, cores)
	}

	best := price(0)
	for mask := uint64(1); mask < 1<<(d-1); mask++ {
		if mask&junctions == 0 {
			if c := price(mask); c < best {
				best, plan.Fuse = c, mask
			}
		}
	}
	for k := range plan.Why {
		switch {
		case junctions>>k&1 == 1:
			plan.Why[k] = fmt.Sprintf("keep cut %d: shard junction (replica widths differ across the cut); fusion needs aligned lanes", k+1)
		case plan.Fuse>>k&1 == 1:
			plan.Why[k] = fmt.Sprintf(
				"fuse cut %d: ring tax %.0f exceeds its pipeline gain (predicted %.0f -> %.0f ns/pkt on %s)",
				k+1, ringSyncNs, price(plan.Fuse^1<<k), best, host)
		default:
			plan.Why[k] = fmt.Sprintf(
				"keep cut %d: its ring tax %.0f buys pipeline parallelism (predicted %.0f ns/pkt with it, %.0f fused, on %s)",
				k+1, ringSyncNs, best, price(plan.Fuse^1<<k), host)
		}
	}
	return plan
}
