package repro

// Realization at the repro layer: realize is the one function that turns a
// cut and a serve configuration into the two faces of one decision — the
// Plan that Pipeline.Plan() prints and the runtime.Layout the engine
// executes. Fusion is a property of the cut, not of the runtime: a cut the
// valuator (costmodel.PlanFusion) finds not worth its ring is un-made —
// core.Result.Coarsen realizes the same stage assignment with one program
// per run of fused stages — and the runtime serves those programs, a ring at
// every boundary that is left. The set of un-made cuts, a bit mask (bit k:
// cut k+1), is the one address of a served shape: the valuator returns one,
// Coarsen and runtime.NewCoarseLayout take one, the shape cache is keyed by
// one, and Serve serves the valuator's, or any mask a test names
// (WithFuseMaskForTest) where it is granted. WithFusion selects the mode:
// FusionAuto (default) applies the verdict, FusionOff keeps every cut. The
// throughput model every realization is priced with is costmodel.Predict.

import (
	"fmt"
	stdruntime "runtime"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/ir"
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
// plausibly; it errs toward fusing cuts that cannot plausibly pay for a
// ring.
const ringSyncNsSPSC = 270.0

// served is the cut realized with a set of its cuts un-made: the units (one
// program per maximal run of fused stages, with the cut stages it stands for
// and its path cost) and their layout under the default configuration, from
// which every serve shape is base.With(a config). err says why the units
// cannot be served.
type served struct {
	units []core.Unit
	base  *runtime.Layout
	err   error
}

// shape returns the pipeline's cut with the cuts in fuse un-made (bit k:
// the cut between stages k+1 and k+2), realizing and classifying it on first
// use. The fully ringed shape is the partition's own stage list; only a
// shape that fuses something pays for a coarser realization, once.
func (p *Pipeline) shape(fuse uint64) *served {
	p.mu.Lock()
	defer p.mu.Unlock()
	if sv, ok := p.shapes[fuse]; ok {
		return sv
	}
	sv := &served{}
	if fuse == 0 {
		for i, prog := range p.stages {
			sv.units = append(sv.units, core.Unit{First: i + 1, Last: i + 1, Prog: prog, Cost: p.report.Stages[i].Cost})
		}
	} else {
		sv.units, sv.err = p.res.Coarsen(fuse)
	}
	if sv.err == nil {
		progs := make([]*ir.Program, len(sv.units))
		for i, u := range sv.units {
			progs[i] = u.Prog
		}
		sv.base, sv.err = runtime.NewCoarseLayout(progs, fuse, runtime.Config{})
	}
	p.shapes[fuse] = sv
	return sv
}

// valuate decides which cuts of the ringed layout plan describes to un-make,
// as a fuse mask, and says why per cut: the valuator's verdict
// (costmodel.PlanFusion, planning for the GOMAXPROCS cores Serve runs on),
// or cfg.fuse when a test names one, granted where
// the valuator could have fused — between stages of equal replica width (a
// fused unit is one program per lane; a scatter or fan-in keeps its
// junction machinery). FusionOff asks nothing and fuses nothing; a fault
// plan names stages, so every cut it could aim at is kept and the verdicts
// say so.
func (p *Pipeline) valuate(cfg config, plan *Plan) (fuse uint64, why []string) {
	if cfg.fusion != FusionAuto {
		return 0, nil
	}
	if cfg.serve.Faults != nil {
		for k := 1; k < plan.Degree; k++ {
			why = append(why, fmt.Sprintf("keep cut %d: kept: the fault plan names stages", k))
		}
		return 0, why
	}
	// A merge does not pay for the cut it swallows: its send and its receive,
	// priced as the cut report's slot count on the cut's ring.
	costs, cutNs := make([]float64, plan.Degree), make([]float64, plan.Degree-1)
	for i, w := range plan.StageWeights {
		costs[i] = float64(w)
	}
	for k, c := range p.report.Cuts {
		cutNs[k] = 2 * float64(p.arch.TxWeight(cfg.explore.Base.Channel, c.Slots))
	}
	fp := costmodel.PlanFusion(costs, cutNs, plan.Replicas, ringSyncNsSPSC/float64(plan.Batch), stdruntime.GOMAXPROCS(0))
	if cfg.fuse == nil {
		return fp.Fuse, fp.Why
	}
	for k, w := range fp.Why {
		given := *cfg.fuse>>k&1 == 1 && plan.Replicas[k] == plan.Replicas[k+1]
		switch {
		case given == (fp.Fuse>>k&1 == 1):
		case given:
			fp.Why[k] = fmt.Sprintf("fuse cut %d: given, against the valuator (%s)", k+1, w)
		default:
			fp.Why[k] = fmt.Sprintf("keep cut %d: given, against the valuator (%s)", k+1, w)
		}
		if given {
			fuse |= 1 << k
		}
	}
	return fuse, fp.Why
}

// Plan describes a Pipeline's realization — which configuration is (or would
// be) serving and what the cost model says of it. It is always a coarsening
// of the pipeline's own cut, so every per-stage field is in Pipeline.Stages'
// numbering. Returned by Pipeline.Plan.
type Plan struct {
	// Degree is the cut's degree D (Pipeline.Degree; Units and FusedCuts say
	// how many programs serve it). Batch and Shards are the realized
	// configuration; Shards is the effective width (1 when no stage can
	// replicate, whatever was asked).
	Degree, Batch, Shards int
	// Replicas is each stage's replica width: 1, or Shards.
	Replicas []int
	// StageWeights is the per-stage worst-case path cost in weight units.
	StageWeights []int64
	// FusedCuts lists the 1-based cuts un-made by stage fusion — stages k
	// and k+1 around cut k are served as one re-realized program, with no
	// transmission between them, instead of two programs on an SPSC ring
	// (Units renders the result). Empty when every cut keeps its ring
	// (including under FusionOff and under a fault plan).
	FusedCuts []int
	// FusionWhy records the fusion valuator's per-cut verdicts in cut
	// order: each call's price against the mask with that cut flipped. Empty
	// when the pipeline has one stage or fusion is off.
	FusionWhy []string
	// PredictedNsPerPkt is the cost model's price for exactly this
	// realization (costmodel.Predict over the served programs' own path
	// costs, their replica widths and the retained handoffs), in datasheet
	// weight units taken as nanoseconds.
	PredictedNsPerPkt float64
}

// realize decides how the pipeline's cut is served under cfg: it lays the
// cut out ringed for the replica widths, takes the fuse mask valuate grants,
// lays the coarsened units out under the same configuration, and reports
// what that layout says — effective shard width, per-stage replicas, the
// fused cuts — with the predictor's price for the programs actually served:
// each unit's own worst-case path cost, not the sum of its members'. Costs
// are model weights, taken as nanoseconds. When no layout exists — a cut
// that is not servable, a configuration Serve would refuse — the error says
// why and the Plan still describes the requested shape.
func (p *Pipeline) realize(cfg config) (*Plan, *runtime.Layout, error) {
	rc := cfg.serveConfig()
	plan := &Plan{Degree: len(p.stages), Batch: max(1, rc.Batch), Shards: max(1, rc.Shards)}
	for _, s := range p.report.Stages {
		plan.StageWeights = append(plan.StageWeights, s.Cost.Total)
	}
	sv := p.shape(0)
	if sv.err != nil {
		return plan, nil, sv.err
	}
	lay, err := sv.base.With(rc)
	if err != nil {
		return plan, nil, err
	}
	plan.Shards, plan.Replicas = lay.Width(), lay.Replicas()
	fuse, why := p.valuate(cfg, plan)
	plan.FusionWhy = why
	if fuse != 0 {
		if sv = p.shape(fuse); sv.err != nil {
			return plan, nil, sv.err
		}
		if lay, err = sv.base.With(rc); err != nil {
			return plan, nil, err
		}
	}
	widths := lay.Replicas()
	unitNs := make([]float64, len(sv.units))
	for i, u := range sv.units {
		unitNs[i] = float64(u.Cost.Total)
		for s := u.First; s <= u.Last; s++ {
			plan.Replicas[s-1] = widths[i]
			if s > u.First {
				plan.FusedCuts = append(plan.FusedCuts, s-1)
			}
		}
	}
	plan.PredictedNsPerPkt = costmodel.Predict(unitNs, widths, ringSyncNsSPSC/float64(plan.Batch), stdruntime.GOMAXPROCS(0))
	return plan, lay, nil
}

// Units renders the served units: each program's cut stages joined by "+",
// with its replica width when sharded — "[1+2+3+4]×2" for a four-stage cut
// served fully fused on two lanes, "[1] [2+3] [4]" with only cut 2 fused.
func (p *Plan) Units() string {
	var b strings.Builder
	for s := 1; s <= p.Degree; s++ {
		switch {
		case s == 1:
			b.WriteString("[1")
		case slices.Contains(p.FusedCuts, s-1):
			fmt.Fprintf(&b, "+%d", s)
		default:
			fmt.Fprintf(&b, " [%d", s)
		}
		if !slices.Contains(p.FusedCuts, s) {
			b.WriteString("]")
			if s <= len(p.Replicas) && p.Replicas[s-1] > 1 {
				fmt.Fprintf(&b, "×%d", p.Replicas[s-1])
			}
		}
	}
	return b.String()
}
