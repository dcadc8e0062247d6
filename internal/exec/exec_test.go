package exec_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
	"repro/internal/ppc"
	"repro/internal/randprog"
)

// The compiled backend has no oracle of its own: every test here holds it
// byte-identical to the interpreter on the same program and inputs — the
// differential discipline ISSUE 5 requires.

// runChain runs iters iterations through stages on the compiled backend,
// each one through every stage before the next: interp.RunPipeline's loop
// over exec runners. A sequential program is a chain of one stage.
func runChain(stages []*ir.Program, world *interp.World, iters int) ([]interp.Event, error) {
	c := interp.Chain[*exec.Runner]{Stages: exec.NewStageRunners(stages, world)}
	if err := c.Run(iters); err != nil {
		return nil, err
	}
	return world.Trace, nil
}

// randPackets derives a deterministic random packet stream for a seed,
// using the same derivation as the core property tests so the two corpora
// exercise the same inputs.
func randPackets(seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	packets := make([][]byte, 3+rng.Intn(4))
	for i := range packets {
		p := make([]byte, rng.Intn(16))
		rng.Read(p)
		packets[i] = p
	}
	return packets
}

// TestCompiledVsInterpSequential is the core differential property: for
// randomly generated programs and random packets, the compiled backend's
// sequential trace is byte-identical to the interpreter's.
func TestCompiledVsInterpSequential(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(0); seed < seeds; seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		prog, err := ppc.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}
		packets := randPackets(seed)
		iters := len(packets) + 1

		base := interp.NewWorld(packets)
		want, err := interp.RunSequential(prog.Clone(), base.Clone(), iters)
		if err != nil {
			t.Fatalf("seed %d: interp: %v\n%s", seed, err, src)
		}
		got, err := runChain([]*ir.Program{prog}, base.Clone(), iters)
		if err != nil {
			t.Fatalf("seed %d: exec: %v\n%s", seed, err, src)
		}
		if diff := interp.TraceEqual(want, got); diff != "" {
			t.Fatalf("seed %d: %s\nsource:\n%s", seed, diff, src)
		}
	}
}

// TestCompiledVsInterpPipeline partitions each generated program and checks
// the compiled pipeline (shared persistent store, live-set hand-off) against
// the interpreter pipeline at several degrees.
func TestCompiledVsInterpPipeline(t *testing.T) {
	seeds := int64(100)
	if testing.Short() {
		seeds = 25
	}
	for seed := int64(0); seed < seeds; seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		prog, err := ppc.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}
		packets := randPackets(seed)
		iters := len(packets) + 1
		base := interp.NewWorld(packets)

		for _, d := range []int{2, 3, 5} {
			res, err := core.Partition(prog, core.Options{Stages: d})
			if err != nil {
				t.Fatalf("seed %d D=%d: partition: %v\n%s", seed, d, err, src)
			}
			want, err := interp.RunPipeline(res.Stages, base.Clone(), iters)
			if err != nil {
				t.Fatalf("seed %d D=%d: interp: %v\n%s", seed, d, err, src)
			}
			got, err := runChain(res.Stages, base.Clone(), iters)
			if err != nil {
				t.Fatalf("seed %d D=%d: exec: %v\n%s", seed, d, err, src)
			}
			if diff := interp.TraceEqual(want, got); diff != "" {
				t.Fatalf("seed %d D=%d: %s\nsource:\n%s", seed, d, diff, src)
			}
		}
	}
}

// TestCompiledNetbenchGolden checks the compiled backend against the
// interpreter on every NPF benchmark PPS, sequentially and partitioned.
func TestCompiledNetbenchGolden(t *testing.T) {
	for _, pps := range append(netbench.IPv4Forwarding(), netbench.IPForwarding()...) {
		prog, err := pps.Compile()
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		traffic := pps.Traffic(64)
		iters := len(traffic) + 1
		base := netbench.NewWorld(traffic)

		want, err := interp.RunSequential(prog.Clone(), base.Clone(), iters)
		if err != nil {
			t.Fatalf("%s: interp: %v", pps.Name, err)
		}
		got, err := runChain([]*ir.Program{prog}, base.Clone(), iters)
		if err != nil {
			t.Fatalf("%s: exec: %v", pps.Name, err)
		}
		if diff := interp.TraceEqual(want, got); diff != "" {
			t.Fatalf("%s sequential: %s", pps.Name, diff)
		}

		for _, d := range []int{2, 4} {
			res, err := core.Partition(prog, core.Options{Stages: d})
			if err != nil {
				t.Fatalf("%s D=%d: partition: %v", pps.Name, d, err)
			}
			got, err := runChain(res.Stages, base.Clone(), iters)
			if err != nil {
				t.Fatalf("%s D=%d: exec pipeline: %v", pps.Name, d, err)
			}
			if diff := interp.TraceEqual(want, got); diff != "" {
				t.Fatalf("%s D=%d: %s", pps.Name, d, diff)
			}
		}
	}
}

// TestCompiledStageHandoff drives compiled stage runners the way the
// streaming runtime does — RxFromCtx, pre-pulled Pending packets, deferred
// events — and checks the merged per-iteration events against the
// interpreter runners driven identically.
func TestCompiledStageHandoff(t *testing.T) {
	pps, ok := netbench.ByName("IPv4")
	if !ok {
		t.Fatal("IPv4 benchmark missing")
	}
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 4})
	if err != nil {
		t.Fatal(err)
	}
	traffic := pps.Traffic(32)

	runBoth := func(runIter func(k int, ctx *interp.IterCtx, slots []int64) ([]int64, error)) []interp.Event {
		ctx := interp.NewIterCtx()
		var all []interp.Event
		for _, p := range traffic {
			ctx.DeferEvents = true
			ctx.Pending, ctx.HasPending = p, true
			var slots []int64
			for k := range res.Stages {
				out, err := runIter(k, ctx, slots)
				if err != nil {
					t.Fatalf("stage %d: %v", k, err)
				}
				slots = out
			}
			all = append(all, ctx.Events...)
			ctx.Reset()
		}
		return all
	}

	iRunners := interp.NewStageRunners(res.Stages, netbench.NewWorld(nil))
	for _, r := range iRunners {
		r.RxFromCtx = true
	}
	want := runBoth(func(k int, ctx *interp.IterCtx, slots []int64) ([]int64, error) {
		return iRunners[k].RunIteration(ctx, slots)
	})

	cRunners := exec.NewStageRunners(res.Stages, netbench.NewWorld(nil))
	for _, r := range cRunners {
		r.RxFromCtx = true
	}
	got := runBoth(func(k int, ctx *interp.IterCtx, slots []int64) ([]int64, error) {
		return cRunners[k].RunIterationInto(ctx, slots, nil)
	})

	if diff := interp.TraceEqual(want, got); diff != "" {
		t.Fatalf("deferred-event hand-off diverges: %s", diff)
	}
}

// TestCompiledStepLimitParity checks that a non-terminating loop errors on
// both backends with the same message rather than hanging.
func TestCompiledStepLimitParity(t *testing.T) {
	prog, err := ppc.Compile(`pps P { loop { var i = 0; while (1) { i = i + 1; } } }`)
	if err != nil {
		t.Fatal(err)
	}
	_, iErr := interp.RunPipeline([]*ir.Program{prog.Clone()}, interp.NewWorld(nil), 1)
	_, cErr := runChain([]*ir.Program{prog}, interp.NewWorld(nil), 1)
	if iErr == nil || cErr == nil {
		t.Fatalf("non-terminating loop did not error: interp=%v exec=%v", iErr, cErr)
	}
	if iErr.Error() != cErr.Error() {
		t.Fatalf("error messages diverge:\ninterp: %v\nexec:   %v", iErr, cErr)
	}
}

// TestCompiledRecvSlotMismatchParity feeds a downstream stage the wrong
// live-set width and checks both backends reject it with the same message.
func TestCompiledRecvSlotMismatchParity(t *testing.T) {
	pps, ok := netbench.ByName("IPv4")
	if !ok {
		t.Fatal("IPv4 benchmark missing")
	}
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 2})
	if err != nil {
		t.Fatal(err)
	}

	iErrRun := interp.NewStageRunners(res.Stages, netbench.NewWorld(nil))[1]
	cErrRun := exec.NewStageRunners(res.Stages, netbench.NewWorld(nil))[1]
	_, iErr := iErrRun.RunIteration(interp.NewIterCtx(), nil)
	_, cErr := cErrRun.RunIterationInto(interp.NewIterCtx(), nil, nil)
	if iErr == nil || cErr == nil {
		t.Skipf("stage 2 accepted empty live set (no recv): interp=%v exec=%v", iErr, cErr)
	}
	if iErr.Error() != cErr.Error() {
		t.Fatalf("error messages diverge:\ninterp: %v\nexec:   %v", iErr, cErr)
	}
}

// TestCompiledPersistentIsolation checks that two independently constructed
// compiled runners do not share persistent state, while NewStageRunners
// peers do (through the shared store).
func TestCompiledPersistentIsolation(t *testing.T) {
	src := `pps P {
		persistent var seen[4];
		loop {
			var n = pkt_rx();
			seen[0] = seen[0] + 1;
			trace(seen[0]);
		} }`
	prog, err := ppc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	w := interp.NewWorld([][]byte{{1}, {2}})

	a := exec.NewRunner(prog, w)
	b := exec.NewRunner(prog.Clone(), w)
	ctx := interp.NewIterCtx()
	if _, err := a.RunIterationInto(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	ctx.Reset()
	if _, err := b.RunIterationInto(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Independent runners each count from zero: trace(1), trace(1).
	if len(w.Trace) != 2 || w.Trace[0].Val != 1 || w.Trace[1].Val != 1 {
		t.Fatalf("independent runners shared persistent state: %v", w.Trace)
	}
	if a.PersistentStore() == b.PersistentStore() {
		t.Fatal("independent runners report the same persistent store")
	}
}

// BenchmarkCompiledSequentialIPv4 measures the raw per-iteration substrate
// cost of the compiled backend against BenchmarkInterpreter's workload.
func BenchmarkCompiledSequentialIPv4(b *testing.B) {
	pps, ok := netbench.ByName("IPv4")
	if !ok {
		b.Fatal("IPv4 benchmark missing")
	}
	prog, err := pps.Compile()
	if err != nil {
		b.Fatal(err)
	}
	traffic := pps.Traffic(256)
	world := netbench.NewWorld(nil)
	r := exec.NewRunner(prog, world)
	r.RxFromCtx = true
	ctx := interp.NewIterCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Pending, ctx.HasPending = traffic[i%len(traffic)], true
		if _, err := r.RunIterationInto(ctx, nil, nil); err != nil {
			b.Fatal(err)
		}
		ctx.Reset()
		if len(world.Trace) > 1<<16 {
			world.Trace = world.Trace[:0]
		}
	}
}

// BenchmarkCompiledChainIPv4 runs the realized IPv4 stages back to back on
// one goroutine the way the serve runtime drives them — RxFromCtx,
// pre-pulled packets, deferred events, a batch per RunBatch with the live
// sets handed over in the batch's two blocks, swapped after every stage —
// so ns/op is the exec layer's share of a served packet at that batch width. IPv4 is
// lane-parallel at every degree; beside it stands BenchmarkNativeIPv4, the
// hand-written floor.
func BenchmarkCompiledChainIPv4(b *testing.B) { benchChain(b, "IPv4", 1, 2, 4) }

// BenchmarkCompiledChainQM is the same for a pipeline whose second stage
// keeps the queue state and therefore runs its lanes one at a time.
func BenchmarkCompiledChainQM(b *testing.B) { benchChain(b, "QM", 2) }

func benchChain(b *testing.B, name string, degrees ...int) {
	pps, ok := netbench.ByName(name)
	if !ok {
		b.Fatalf("%s benchmark missing", name)
	}
	prog, err := pps.Compile()
	if err != nil {
		b.Fatal(err)
	}
	traffic := pps.Traffic(256)
	for _, d := range degrees {
		res, err := core.Partition(prog, core.Options{Stages: d})
		if err != nil {
			b.Fatal(err)
		}
		for _, width := range []int{1, 2, 8, 32} {
			b.Run(fmt.Sprintf("D=%d/width=%d", d, width), func(b *testing.B) {
				runners := exec.NewStageRunners(res.Stages, netbench.NewWorld(nil))
				for _, r := range runners {
					r.RxFromCtx = true
				}
				its := make([]*interp.IterCtx, width)
				for l := range its {
					its[l] = interp.NewIterCtx()
					its[l].DeferEvents = true
				}
				in, out := exec.NewBlocks(0, width)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += width {
					for l := range its {
						its[l].Pending, its[l].HasPending = traffic[(i+l)%len(traffic)], true
					}
					in.Reset()
					for _, r := range runners {
						if err := r.RunBatch(its, in, out); err != nil {
							b.Fatal(err)
						}
						in, out = out, in
					}
					for l := range its {
						its[l].Reset()
					}
				}
			})
		}
	}
}

// TestIntrinsicTableIsTheOneList: both backends implement exactly the
// intrinsics costmodel.Intrinsics lists — the table every analysis of a
// stage's state reads. A one-call program of each entry, at its arity and
// with a result register as HasResult says, runs on both with the same
// trace; a name missing from the table fails on both with the same error.
func TestIntrinsicTableIsTheOneList(t *testing.T) {
	oneCall := func(name string, nargs int, result bool) *ir.Program {
		f := ir.NewFunc(name)
		bl := ir.NewBuilder(f)
		args := make([]int, nargs)
		for i := range args {
			args[i] = bl.Const(int64(i + 1))
		}
		if result {
			bl.Call(name, args...)
		} else {
			bl.CallVoid(name, args...)
		}
		bl.Ret()
		return &ir.Program{Name: name, Func: f}
	}
	run := func(prog *ir.Program) (want, got []interp.Event, ierr, xerr error) {
		base := netbench.NewWorld([][]byte{{0x45, 0, 0, 20, 1, 2, 3, 4}})
		want, ierr = interp.RunPipeline([]*ir.Program{prog.Clone()}, base.Clone(), 1)
		got, xerr = runChain([]*ir.Program{prog}, base.Clone(), 1)
		return want, got, ierr, xerr
	}
	names := make([]string, 0, len(costmodel.Intrinsics))
	for name := range costmodel.Intrinsics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		intr := costmodel.Intrinsics[name]
		want, got, ierr, xerr := run(oneCall(name, intr.NArgs, intr.HasResult))
		if ierr != nil || xerr != nil {
			t.Errorf("%s: interp err = %v, exec err = %v", name, ierr, xerr)
			continue
		}
		if diff := interp.TraceEqual(want, got); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
	const missing = "pkt_frobnicate"
	if _, ok := costmodel.Intrinsics[missing]; ok {
		t.Fatalf("%s is in the table", missing)
	}
	_, _, ierr, xerr := run(oneCall(missing, 1, true))
	wantErr := fmt.Sprintf("unknown intrinsic %q", missing)
	if ierr == nil || xerr == nil || !strings.Contains(ierr.Error(), wantErr) || ierr.Error() != xerr.Error() {
		t.Errorf("%s: interp err = %v, exec err = %v, want both %q", missing, ierr, xerr, wantErr)
	}
}
