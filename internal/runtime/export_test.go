package runtime

import (
	"repro/internal/core"
	"repro/internal/ir"
)

// CoarseLayout lays res out under cfg with the cuts fuse names un-made
// (fuse[k] joins stages k+1 and k+2 into one program; short masks keep the
// rest). With aligned set a cut is un-made only between stages the ringed
// layout replicates equally wide — the rule the repro facade grants fusion
// by, so a scatter or fan-in keeps its junction; without it the mask is
// taken as is and a merged program replicates as its own state allows.
func CoarseLayout(res *core.Result, fuse []bool, aligned bool, cfg Config) (*Layout, error) {
	ringed, err := NewLayout(res.Stages, cfg)
	if err != nil {
		return nil, err
	}
	reps := ringed.Replicas()
	keep := make([]bool, len(res.Stages)-1)
	for k := range keep {
		keep[k] = k >= len(fuse) || !fuse[k] || (aligned && reps[k] != reps[k+1])
	}
	units, err := res.Coarsen(keep)
	if err != nil {
		return nil, err
	}
	progs, covers := make([]*ir.Program, len(units)), make([]int, len(units))
	for i, u := range units {
		progs[i], covers[i] = u.Prog, u.Last-u.First+1
	}
	return NewCoarseLayout(progs, covers, cfg)
}
