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
// rather than skipped — sequentially and partitioned at D = 2, 3 and 5. The
// seeds checked in under testdata/fuzz replay on every go test run.
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
				_, err := exec.RunSequential(prog.Clone(), w, iters)
				return err
			}
			_, err := interp.RunSequential(prog.Clone(), w, iters)
			return err
		})
		for _, d := range []int{2, 3, 5} {
			res, err := core.Partition(prog, core.Options{Stages: d})
			if err != nil {
				continue // not partitionable at this degree
			}
			agree(fmt.Sprintf("D=%d", d), func(w *interp.World, compiled bool) error {
				stages := make([]*ir.Program, len(res.Stages))
				for i, s := range res.Stages {
					stages[i] = s.Clone()
				}
				if compiled {
					_, err := exec.RunPipeline(stages, w, iters)
					return err
				}
				_, err := interp.RunPipeline(stages, w, iters)
				return err
			})
		}
	})
}
