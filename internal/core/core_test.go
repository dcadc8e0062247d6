package core_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	. "repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/errs"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/ppc"
)

// checkEquivalent partitions src into every degree in degrees and asserts
// the pipelined execution produces exactly the sequential trace.
func checkEquivalent(t *testing.T, src string, packets [][]byte, iters int, degrees ...int) {
	t.Helper()
	prog, err := ppc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	base := interp.NewWorld(packets)
	seqTrace, err := interp.RunSequential(prog.Clone(), base.Clone(), iters)
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	for _, d := range degrees {
		res, err := Partition(prog, Options{Stages: d})
		if err != nil {
			t.Fatalf("Partition(D=%d): %v", d, err)
		}
		if len(res.Stages) != d {
			t.Fatalf("Partition(D=%d) returned %d stages", d, len(res.Stages))
		}
		pipeTrace, err := interp.RunPipeline(res.Stages, base.Clone(), iters)
		if err != nil {
			t.Fatalf("pipeline run (D=%d): %v", d, err)
		}
		if diff := interp.TraceEqual(seqTrace, pipeTrace); diff != "" {
			var stages string
			for _, s := range res.Stages {
				stages += s.Func.String()
			}
			t.Fatalf("D=%d: behaviour changed: %s\n%s", d, diff, stages)
		}
	}
}

// paperExample is the paper's figure 2 program (MyPPS2) translated to PPC:
// an if/else whose arms compute x/y/z with different producers.
const paperExample = `
pps MyPPS2 {
	loop {
		var p = pkt_rx();
		var x = 0;
		var y = 0;
		var z = 0;
		if (p > 0) {
			x = p * 3 + 1;
			y = p * 5 + 2;
			z = x * y;
		} else {
			x = p - 7;
			y = p ^ 0x55;
			z = x + y;
		}
		trace(z);
	}
}`

func TestPaperFigure2Equivalence(t *testing.T) {
	checkEquivalent(t, paperExample, [][]byte{{1}, {2, 2}, {}, {9, 9, 9}}, 5, 1, 2, 3, 4)
}

func TestPaperFigure2LiveSet(t *testing.T) {
	prog, err := ppc.Compile(paperExample)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(prog, Options{Stages: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if len(rep.Cuts) != 1 {
		t.Fatalf("expected 1 cut, got %d", len(rep.Cuts))
	}
	cut := rep.Cuts[0]
	// The figure-3 structure: some values plus (possibly) a control object
	// cross the cut; the live set must be nonempty and packed into at
	// least one slot.
	if cut.Values+cut.Ctrls == 0 {
		t.Error("cut transmits nothing; the partition is degenerate")
	}
	if cut.Slots <= 0 || cut.Slots > cut.Values+cut.Ctrls {
		t.Errorf("slots = %d out of range (objects = %d)", cut.Slots, cut.Values+cut.Ctrls)
	}
}

func TestStraightLinePipeline(t *testing.T) {
	checkEquivalent(t, `pps P { loop {
		var a = pkt_rx();
		var b = a * 3;
		var c = b + 7;
		var d = c ^ 0xFF;
		var e = d * d;
		trace(e);
	} }`, [][]byte{{1}, {2}}, 3, 1, 2, 3, 4)
}

func TestDiamondControlDependence(t *testing.T) {
	checkEquivalent(t, `pps P { loop {
		var n = pkt_rx();
		if (n > 1) { trace(100 + n); } else { trace(200 + n); }
		trace(n * 2);
	} }`, [][]byte{{1}, {2, 2}, {}}, 4, 2, 3)
}

func TestNestedIfPipeline(t *testing.T) {
	checkEquivalent(t, `pps P { loop {
		var n = pkt_rx();
		var v = 0;
		if (n > 0) {
			if (n > 2) { v = 1; } else { v = 2; }
		} else {
			v = 3;
		}
		trace(v);
		trace(v * n);
	} }`, [][]byte{{1}, {1, 2, 3}, {}, {4, 4}}, 5, 2, 3, 4)
}

func TestInnerLoopStaysWhole(t *testing.T) {
	src := `pps P { loop {
		var n = pkt_rx();
		var sum = 0;
		for[16] (var i = 0; i < n; i = i + 1) { sum = sum + pkt_byte(i); }
		trace(sum);
		trace(sum * 2);
	} }`
	checkEquivalent(t, src, [][]byte{{1, 2, 3}, {5, 5, 5, 5}}, 3, 2, 3)
}

func TestMultiExitLoopControlObject(t *testing.T) {
	// A loop with two exits (break vs condition) followed by code that
	// depends on which exit was taken — the figure-17 scenario.
	src := `pps P { loop {
		var n = pkt_rx();
		var i = 0;
		var hit = 0;
		while[20] (i < 8) {
			if (pkt_byte(i) == 7) { hit = 1; break; }
			i = i + 1;
		}
		if (hit == 1) { trace(1000 + i); } else { trace(2000 + i); }
	} }`
	checkEquivalent(t, src,
		[][]byte{{1, 2, 7, 4}, {1, 2, 3}, {7}, {}}, 5, 2, 3, 4)
}

func TestSwitchPipeline(t *testing.T) {
	checkEquivalent(t, `pps P { loop {
		var n = pkt_rx();
		var v = 0;
		switch (n) {
		case 1: v = 10;
		case 2: v = 20;
		case 3: v = 30;
		default: v = 99;
		}
		trace(v);
		trace(v + n);
	} }`, [][]byte{{1}, {2, 2}, {3, 3, 3}, {4, 4, 4, 4}, {}}, 6, 2, 3)
}

func TestPersistentStateStaysInOneStage(t *testing.T) {
	src := `pps QM {
		persistent var depth = 0;
		loop {
			var n = pkt_rx();
			depth = depth + n;
			if (depth > 100) { depth = depth - 100; trace(1); } else { trace(0); }
			trace(depth);
		}
	}`
	checkEquivalent(t, src, [][]byte{{1, 1}, {2}, {3, 3, 3}}, 4, 2, 3)

	// The persistent load and store must land in the same stage.
	prog, _ := ppc.Compile(src)
	res, err := Partition(prog, Options{Stages: 3})
	if err != nil {
		t.Fatal(err)
	}
	stageTouching := -1
	for i, sp := range res.Stages {
		touches := false
		for _, b := range sp.Func.Blocks {
			for _, in := range b.Instrs {
				if (in.Op == ir.OpLoad || in.Op == ir.OpStore) && in.Arr.Name == "depth" {
					touches = true
				}
			}
		}
		if touches {
			if stageTouching >= 0 {
				t.Fatalf("persistent array touched by stages %d and %d", stageTouching+1, i+1)
			}
			stageTouching = i
		}
	}
	if stageTouching < 0 {
		t.Fatal("persistent array vanished")
	}
}

func TestLocalArrayAcrossStages(t *testing.T) {
	checkEquivalent(t, `pps P {
		var buf[8];
		loop {
			var n = pkt_rx();
			buf[0] = n * 2;
			buf[1] = n + 5;
			trace(buf[0] + buf[1]);
		}
	}`, [][]byte{{1}, {2, 2}}, 3, 2, 3)
}

func TestQueueIntrinsicsPipeline(t *testing.T) {
	checkEquivalent(t, `pps P { loop {
		var n = pkt_rx();
		if (n > 0) { q_put(1, n); }
		var depth = q_len(1);
		if (depth > 2) { trace(q_get(1)); }
		trace(depth);
	} }`, [][]byte{{1}, {2, 2}, {3, 3, 3}, {}, {5}}, 6, 2, 3)
}

func TestPacketModificationOrdering(t *testing.T) {
	checkEquivalent(t, `pps P { loop {
		var n = pkt_rx();
		if (n < 2) { continue; }
		var ttl = pkt_byte(0);
		pkt_setbyte(0, ttl - 1);
		var sum = pkt_byte(0) + pkt_byte(1);
		pkt_setbyte(1, sum & 0xFF);
		pkt_send(1);
	} }`, [][]byte{{5, 3}, {1}, {8, 8, 8}}, 4, 2, 3, 4)
}

func TestShortCircuitPipeline(t *testing.T) {
	checkEquivalent(t, `pps P { loop {
		var n = pkt_rx();
		if (n > 0 && pkt_byte(0) > 3 || n == 2) { trace(1); } else { trace(0); }
	} }`, [][]byte{{9}, {1, 1}, {2}, {}}, 5, 2, 3)
}

func TestTernaryChainPipeline(t *testing.T) {
	checkEquivalent(t, `pps P { loop {
		var n = pkt_rx();
		var cls = n < 0 ? 0 : n < 2 ? 1 : n < 4 ? 2 : 3;
		trace(cls);
		trace(cls * 10 + n);
	} }`, [][]byte{{}, {1}, {2, 2, 2}, {4, 4, 4, 4, 4}}, 5, 2, 3, 4)
}

func TestDegreeOneIsIdentityBehaviour(t *testing.T) {
	checkEquivalent(t, paperExample, [][]byte{{3}, {}}, 3, 1)
}

func TestSpeedupReportedForBalancedProgram(t *testing.T) {
	// A long straight-line chain of independent computations should split
	// nearly evenly: speedup at D=4 must be well above 1.
	src := `pps P { loop { var n = pkt_rx();`
	for i := 0; i < 40; i++ {
		src += fmt.Sprintf("var v%d = (n + %d) * %d ^ %d; trace(v%d);", i, i, i+3, i*7, i)
	}
	src += `} }`
	prog, err := ppc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(prog, Options{Stages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Speedup < 2.0 {
		t.Errorf("speedup = %.2f, want >= 2 for a 4-way split of independent work", res.Report.Speedup)
	}
	// And it must still be correct.
	checkEquivalent(t, src, [][]byte{{1}, {2}}, 2, 4)
}

func TestSlotPackingSharesExclusiveArms(t *testing.T) {
	// t2/t3 from the paper's figure 9: two values defined in exclusive
	// arms and consumed downstream can share one transmission slot.
	src := `pps P { loop {
		var p = pkt_rx();
		var t2 = 0;
		var t3 = 0;
		if (p > 0) { t2 = p * 11; } else { t3 = p * 13; }
		if (p > 0) { trace(t2); } else { trace(t3); }
	} }`
	prog, err := ppc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := Partition(prog, Options{Stages: 2, Tx: TxPacked})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Partition(prog, Options{Stages: 2, Tx: TxNaiveUnified})
	if err != nil {
		t.Fatal(err)
	}
	ps := packed.Report.Cuts[0].Slots
	ns := naive.Report.Cuts[0].Slots
	if ps > ns {
		t.Errorf("packed slots (%d) exceed naive slots (%d)", ps, ns)
	}
	// Both must be correct.
	for _, r := range []*Result{packed, naive} {
		base := interp.NewWorld([][]byte{{1}, {}, {2, 2}})
		seq, _ := interp.RunSequential(prog.Clone(), base.Clone(), 4)
		pipe, err := interp.RunPipeline(r.Stages, base.Clone(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if diff := interp.TraceEqual(seq, pipe); diff != "" {
			t.Fatalf("packing broke behaviour: %s", diff)
		}
	}
}

func TestReportShape(t *testing.T) {
	prog, _ := ppc.Compile(paperExample)
	res, err := Partition(prog, Options{Stages: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if len(rep.Stages) != 3 || len(rep.Cuts) != 2 {
		t.Fatalf("report shape: %d stages, %d cuts", len(rep.Stages), len(rep.Cuts))
	}
	if rep.Seq.Total <= 0 {
		t.Error("sequential cost missing")
	}
	if rep.Speedup <= 0 {
		t.Error("speedup missing")
	}
	if rep.LongestStage < 1 || rep.LongestStage > 3 {
		t.Errorf("longest stage = %d", rep.LongestStage)
	}
	for _, s := range rep.Stages {
		if s.Cost.Total < 0 || s.Cost.Tx < 0 || s.Cost.Tx > s.Cost.Total {
			t.Errorf("stage %d: inconsistent cost %+v", s.Stage, s.Cost)
		}
	}
}

func TestInputProgramNotModified(t *testing.T) {
	prog, _ := ppc.Compile(paperExample)
	before := prog.Func.String()
	if _, err := Partition(prog, Options{Stages: 3}); err != nil {
		t.Fatal(err)
	}
	if prog.Func.String() != before {
		t.Error("Partition modified its input program")
	}
}

// TestPartitionRejectsOtherArch: an analysis bakes its cost model into the
// unit weights and flow capacities, so a cut asked for under a different
// model is refused with errs.ErrArchMismatch instead of being priced by two
// models at once; the analysis's own model, or none, is accepted.
func TestPartitionRejectsOtherArch(t *testing.T) {
	prog, err := ppc.Compile(paperExample)
	if err != nil {
		t.Fatal(err)
	}
	arch := costmodel.Default()
	a, err := Analyze(prog, arch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Partition(Options{Stages: 2, Arch: costmodel.Default()}); !errors.Is(err, errs.ErrArchMismatch) {
		t.Errorf("Partition(other arch) err = %v, want ErrArchMismatch", err)
	}
	for _, same := range []*costmodel.Arch{arch, nil} {
		if _, err := a.Partition(Options{Stages: 2, Arch: same}); err != nil {
			t.Errorf("Partition(arch %p) err = %v, want success", same, err)
		}
	}
}

func TestHigherDegreesThanUnits(t *testing.T) {
	// More stages than meaningful work: later stages may be empty, but
	// execution must stay correct.
	checkEquivalent(t, `pps P { loop { trace(pkt_rx()); } }`,
		[][]byte{{1}, {2, 2}}, 3, 4, 6)
}

func TestReportString(t *testing.T) {
	prog, _ := ppc.Compile(paperExample)
	res, err := Partition(prog, Options{Stages: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Report.String()
	for _, want := range []string{"sequential worst-case path", "stage 1", "stage 3", "cut 1", "cut 2", "speedup"} {
		if !strings.Contains(s, want) {
			t.Errorf("Report.String() missing %q:\n%s", want, s)
		}
	}
}
