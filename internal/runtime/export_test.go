package runtime

import (
	"context"

	"repro/internal/core"
	"repro/internal/ir"
)

// CoarseLayout lays res out under cfg with the cuts fuse names un-made (bit
// k joins stages k+1 and k+2 into one program; bits past the last cut are
// ignored). With aligned set a cut is un-made only between stages the ringed
// layout replicates equally wide — the rule the repro facade grants fusion
// by, so a scatter or fan-in keeps its junction; without it the mask is
// taken as is and a merged program replicates as its own state allows.
func CoarseLayout(res *core.Result, fuse uint64, aligned bool, cfg Config) (*Layout, error) {
	ringed, err := NewLayout(res.Stages, cfg)
	if err != nil {
		return nil, err
	}
	reps := ringed.Replicas()
	fuse &= 1<<(len(reps)-1) - 1
	for k := 0; aligned && k+1 < len(reps); k++ {
		if reps[k] != reps[k+1] {
			fuse &^= 1 << k
		}
	}
	units, err := res.Coarsen(fuse)
	if err != nil {
		return nil, err
	}
	progs := make([]*ir.Program, len(units))
	for i, u := range units {
		progs[i] = u.Prog
	}
	return NewCoarseLayout(progs, fuse, cfg)
}

// ArmLent arms a per-packet source as a serve does: its Pull then reads a
// flag set once ctx is done. Call release when done with it.
func ArmLent(src Lent, ctx context.Context) (armed Source, release func() bool) {
	return src.(lender).arm(ctx)
}
