package exec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/ppc"
	"repro/internal/randprog"
)

// FuzzExecVsInterp holds the compiled backend to the interpreter on programs
// nobody wrote: one seed picks the random program, the other its packets,
// and the two backends must agree — events and error text, errors included
// rather than skipped — sequentially and partitioned at D = 2, 3 and 5,
// one iteration per call and then in batches: the packet seed also picks a
// batch width from 1 to a full group and where the stream splits into
// batches, and the stages run a batch at a time, stage-major, as the serve
// runtime drives them (programs with persistent variables or queues take
// the serial path there, the others run their lanes together). The seeds
// checked in under testdata/fuzz replay on every go test run.
func FuzzExecVsInterp(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, seed*7+1)
	}
	f.Fuzz(func(t *testing.T, progSeed, pktSeed int64) {
		src := randprog.Generate(progSeed, randprog.DefaultConfig())
		prog, err := ppc.Compile(src)
		if err != nil {
			t.Skipf("seed %d: not compilable: %v", progSeed, err)
		}
		rng := rand.New(rand.NewSource(pktSeed))
		packets := make([][]byte, 1+rng.Intn(6))
		for i := range packets {
			packets[i] = make([]byte, rng.Intn(24))
			rng.Read(packets[i])
		}
		iters := len(packets) + 1
		// The batched stream cycles the packets through a short first batch
		// (so the split moves), one of the full width and a last of two: a
		// packet and the iteration that finds the stream exhausted.
		width := 1 + rng.Intn(exec.Lanes)
		first := 1 + rng.Intn(width)
		stream := make([][]byte, first+width+1)
		for i := range stream {
			stream[i] = packets[i%len(packets)]
		}

		agree := func(tag string, run func(w *interp.World, compiled bool) error) {
			iw, cw := interp.NewWorld(packets), interp.NewWorld(packets)
			iErr, cErr := run(iw, false), run(cw, true)
			if errText(iErr) != errText(cErr) {
				t.Fatalf("%s: errors diverge:\ninterp: %v\nexec:   %v\n%s", tag, iErr, cErr, src)
			}
			if diff := interp.TraceEqual(iw.Trace, cw.Trace); diff != "" {
				t.Fatalf("%s: %s\n%s", tag, diff, src)
			}
		}
		agree("sequential", func(w *interp.World, compiled bool) error {
			if compiled {
				_, err := runChain([]*ir.Program{prog.Clone()}, w, iters)
				return err
			}
			_, err := interp.RunPipeline([]*ir.Program{prog.Clone()}, w, iters)
			return err
		})
		batched := func(tag string, stages []*ir.Program) {
			want, wantErr := interpStream(stages, stream, len(stream)+1)
			if wantErr != nil && len(stages) > 1 {
				// Iteration-major and stage-major runs stop at different
				// points; the one-lane run above has held the error itself.
				return
			}
			got, gotErr := execStream(stages, stream, len(stream)+1, width, first)
			if errText(wantErr) != errText(gotErr) {
				t.Fatalf("%s, batches of %d after %d: errors diverge:\ninterp: %v\nexec:   %v\n%s", tag, width, first, wantErr, gotErr, src)
			}
			for i, evs := range want {
				if diff := interp.TraceEqual(evs, got[i]); diff != "" {
					t.Fatalf("%s, batches of %d after %d, iteration %d: %s\n%s", tag, width, first, i, diff, src)
				}
			}
		}
		batched("sequential", []*ir.Program{prog})
		for _, d := range []int{2, 3, 5} {
			res, err := core.Partition(prog, core.Options{Stages: d})
			if err != nil {
				continue // not partitionable at this degree
			}
			batched(fmt.Sprintf("D=%d", d), res.Stages)
			agree(fmt.Sprintf("D=%d", d), func(w *interp.World, compiled bool) error {
				stages := make([]*ir.Program, len(res.Stages))
				for i, s := range res.Stages {
					stages[i] = s.Clone()
				}
				if compiled {
					_, err := runChain(stages, w, iters)
					return err
				}
				_, err := interp.RunPipeline(stages, w, iters)
				return err
			})
		}
	})
}

// streamCtxs is one context per iteration, each with its packet pre-pulled
// (the last iteration finds the stream exhausted) and its events deferred.
func streamCtxs(packets [][]byte, iters int) []*interp.IterCtx {
	ctxs := make([]*interp.IterCtx, iters)
	for i := range ctxs {
		ctxs[i] = interp.NewIterCtx()
		ctxs[i].DeferEvents = true
		if i < len(packets) {
			ctxs[i].Pending, ctxs[i].HasPending = packets[i], true
		}
	}
	return ctxs
}

func cloneStages(stages []*ir.Program) []*ir.Program {
	out := make([]*ir.Program, len(stages))
	for i, s := range stages {
		out[i] = s.Clone()
	}
	return out
}

// interpStream runs the iterations one after the other on the interpreter
// and returns each one's events, up to and including the first that fails,
// and that one's error.
func interpStream(stages []*ir.Program, packets [][]byte, iters int) ([][]interp.Event, error) {
	runners := interp.NewStageRunners(cloneStages(stages), interp.NewWorld(nil))
	var out [][]interp.Event
	for _, ctx := range streamCtxs(packets, iters) {
		var slots []int64
		for _, r := range runners {
			r.RxFromCtx = true
			sent, err := r.RunIteration(ctx, slots)
			if err != nil {
				return append(out, ctx.Events), err
			}
			slots = sent
		}
		out = append(out, ctx.Events)
	}
	return out, nil
}

// execStream runs the same iterations on the compiled backend a batch at a
// time, each batch through every stage before the next batch starts: first
// iterations, then width at a time. It returns every iteration's events as
// far as the batches got, and the error that stopped them.
func execStream(stages []*ir.Program, packets [][]byte, iters, width, first int) ([][]interp.Event, error) {
	runners := exec.NewStageRunners(cloneStages(stages), interp.NewWorld(nil))
	ctxs := streamCtxs(packets, iters)
	var err error
	for lo, n := 0, first; lo < iters && err == nil; lo, n = lo+n, width {
		its := ctxs[lo:min(lo+n, iters)]
		in, out := exec.NewBlocks(0, len(its))
		for _, r := range runners {
			r.RxFromCtx = true
			if err = r.RunBatch(its, in, out); err != nil {
				break
			}
			in, out = out, in
		}
	}
	out := make([][]interp.Event, iters)
	for i, ctx := range ctxs {
		out[i] = ctx.Events
	}
	return out, err
}
