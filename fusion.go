package repro

// Realization at the repro layer: realize is the one function that turns a
// cut and a serve configuration into the two faces of one decision — the
// Plan that Pipeline.Plan() prints and the runtime.Layout the engine
// executes. The throughput model it prices realizations with is
// costmodel.Predict; the fusion valuator built on it is
// costmodel.PlanFusion; which cuts may fuse and how wide each stage
// replicates is the Layout's say. WithFusion selects the mode: FusionAuto
// (default) applies the valuator's verdict, FusionOff pins every cut to a
// ring.

import (
	stdruntime "runtime"

	"repro/internal/costmodel"
	"repro/internal/runtime"
)

// ringSyncNsSPSC is the per-ring-entry synchronization estimate every
// prediction charges per handoff (divided by the batch a ring entry
// carries). Derived from the ring microbenchmark in internal/spsc
// (bench_test.go, recorded in EXPERIMENTS.md): the model charges the tax
// at a *saturated* cut, where each entry puts one blocked handoff on the
// end-to-end cadence, so the constant is the measured blocked ping-pong
// round trip divided by the two entries each round trip moves — not the
// far cheaper uncontended cost (~22ns per entry), which a saturated
// boundary never sees. The estimate only has to order realizations
// plausibly — under WithAutotune, measurements make the actual choice; on
// the static path it errs toward fusing cuts that cannot plausibly pay for
// a ring.
const ringSyncNsSPSC = 270.0

// fusionCores reports the core budget predictions plan for. A function
// variable so tests (golden Plan fixtures) can pin a host-independent core
// count.
var fusionCores = func() int { return stdruntime.GOMAXPROCS(0) }

// realize decides how the pipeline's cut is served under cfg: it asks the
// valuator which cuts to fuse (mode FusionAuto; FusionOff requests none and
// records no verdicts), lays the stages out under the resulting runtime
// configuration, and reports what that layout says — effective shard
// width, per-stage replicas, the cuts that really fuse — together with the
// predictor's price for exactly that realization. Stage costs are the
// report's weights times nsPerWeight (1 on the static path: datasheet
// weights taken as nanoseconds). When no layout exists — a cut that is not
// servable, a configuration Serve would refuse — the error says why and
// the Plan still describes the requested shape.
func (p *Pipeline) realize(cfg config, mode FusionMode, nsPerWeight float64) (*Plan, *runtime.Layout, error) {
	rc := cfg.serve
	plan := &Plan{
		Degree:    len(p.stages),
		Batch:     max(1, rc.Batch),
		Shards:    max(1, rc.Shards),
		Objective: cfg.objective.String(),
		Why:       "static cut under datasheet weights; no adaptive serve has run",
	}
	costs := make([]float64, len(p.report.Stages))
	for i, s := range p.report.Stages {
		plan.StageWeights = append(plan.StageWeights, s.Cost.Total)
		costs[i] = float64(s.Cost.Total) * nsPerWeight
	}
	if p.base == nil {
		return plan, nil, p.baseErr
	}
	// Replica widths do not depend on the fuse mask, so the ringed layout
	// supplies the widths the valuator prices its merges with.
	lay, err := p.base.With(rc)
	if err != nil {
		return plan, nil, err
	}
	plan.Shards, plan.Replicas = lay.Width(), lay.Replicas()
	sync, cores := ringSyncNsSPSC/float64(plan.Batch), fusionCores()
	if mode == FusionAuto {
		fp := costmodel.PlanFusion(costs, plan.Replicas, sync, cores)
		rc.FuseCuts = fp.FuseCuts
		if lay, err = p.base.With(rc); err != nil {
			return plan, nil, err
		}
		for _, dec := range fp.Decisions {
			plan.FusionWhy = append(plan.FusionWhy, dec.Why)
		}
	}
	fused := lay.Fused()
	for k, f := range fused {
		if f {
			plan.FusedCuts = append(plan.FusedCuts, k+1)
		}
	}
	plan.PredictedNsPerPkt = price(costs, fused, plan.Replicas, sync, cores)
	return plan, lay, nil
}

// price folds per-stage costs into the realization's execution units — a
// run of stages joined by fused cuts is one unit, at the replica width its
// stages share — and asks the one predictor for its cost per packet.
func price(costs []float64, fused []bool, replicas []int, sync float64, cores int) float64 {
	var units []float64
	var widths []int
	for s, c := range costs {
		if s > 0 && fused[s-1] {
			units[len(units)-1] += c
		} else {
			units, widths = append(units, c), append(widths, replicas[s])
		}
	}
	return costmodel.Predict(units, widths, sync, cores)
}
