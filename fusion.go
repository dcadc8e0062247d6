package repro

// Realization at the repro layer: realize is the one function that turns a
// cut and a serve configuration into the two faces of one decision — the
// Plan that Pipeline.Plan() prints and the runtime.Layout the engine
// executes. Fusion is a property of the cut, not of the runtime: under
// FusionAuto (the default) a cut is un-made exactly when neither stage beside
// it keeps state, read off the state scan that sets replica widths
// (runtime.Layout.Serial). Each run of stateless stages is then one program
// (core.Result.Coarsen), replicated whole, and a ring stays only beside a
// stage that runs once — every shard junction is such a cut. The set of
// un-made cuts, a bit mask (bit k: cut k+1), is the one address of a served
// shape: Coarsen and runtime.NewCoarseLayout take one, the shape cache is
// keyed by one, and Serve serves the rule's, or any mask a test names
// (WithFuseMaskForTest) where it is granted. FusionOff keeps every cut.

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/runtime"
)

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

// valuate decides which cuts of the ringed layout to un-make, as a fuse
// mask, and says why per cut, given each stage's state scan and replica
// width. FusionAuto un-makes a cut exactly when neither stage beside it
// keeps state. A mask a test names (cfg.fuse) is granted instead wherever the
// widths across the cut align: a fused unit is one program per lane, and a
// scatter or fan-in keeps its junction machinery. FusionOff fuses nothing
// and says nothing; a fault plan names stages, so every cut it could aim at
// is kept and the verdicts say so.
func valuate(cfg config, serial []bool, widths []int) (fuse uint64, why []string) {
	if cfg.fusion != FusionAuto {
		return 0, nil
	}
	for k := 1; k < len(serial); k++ {
		rule := !serial[k-1] && !serial[k]
		var reason string
		switch {
		case rule:
			reason = fmt.Sprintf("neither stage %d nor stage %d keeps state", k, k+1)
		case serial[k-1] && serial[k]:
			reason = fmt.Sprintf("stages %d and %d keep state", k, k+1)
		case serial[k-1]:
			reason = fmt.Sprintf("stage %d keeps state", k)
		default:
			reason = fmt.Sprintf("stage %d keeps state", k+1)
		}
		fused := rule
		switch {
		case cfg.serve.Faults != nil:
			fused, reason = false, "kept: the fault plan names stages"
		case cfg.fuse != nil:
			if fused = *cfg.fuse>>(k-1)&1 == 1 && widths[k-1] == widths[k]; fused != rule {
				reason = "given, against the rule: " + reason
			}
		}
		verb := "keep"
		if fused {
			verb, fuse = "fuse", fuse|1<<(k-1)
		}
		why = append(why, fmt.Sprintf("%s cut %d: %s", verb, k, reason))
	}
	return fuse, why
}

// Plan describes a Pipeline's realization — which configuration is (or would
// be) serving and the cost model's stage weights. It is always a coarsening
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
	// FusionWhy records the per-cut fusion verdicts in cut order, each with
	// its reason: which stage beside the cut keeps state, or that neither
	// does. Empty when the pipeline has one stage or fusion is off.
	FusionWhy []string
}

// realize decides how the pipeline's cut is served under cfg: it lays the
// cut out ringed for the replica widths, takes the fuse mask valuate grants,
// lays the coarsened units out under the same configuration, and reports
// what that layout says — effective shard width, per-stage replicas, the
// fused cuts. When no layout exists — a cut that is not servable, a
// configuration Serve would refuse — the error says why and the Plan still
// describes the requested shape.
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
	fuse, why := valuate(cfg, lay.Serial(), plan.Replicas)
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
	for i, u := range sv.units {
		for s := u.First; s <= u.Last; s++ {
			plan.Replicas[s-1] = widths[i]
			if s > u.First {
				plan.FusedCuts = append(plan.FusedCuts, s-1)
			}
		}
	}
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
