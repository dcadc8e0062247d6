package ssa

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/ppc"
)

// compileSSA compiles PPC source and converts it to SSA.
func compileSSA(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := ppc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	Build(prog.Func)
	if err := prog.Func.Verify(ir.VerifySSA); err != nil {
		t.Fatalf("SSA verify failed: %v\n%s", err, prog.Func)
	}
	return prog
}

// tracesMatch runs the original and the transformed program on the same
// inputs and compares traces.
func tracesMatch(t *testing.T, src string, transform func(*ir.Func), packets [][]byte, iters int) {
	t.Helper()
	orig, err := ppc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	trans := orig.Clone()
	transform(trans.Func)

	w1 := interp.NewWorld(packets)
	tr1, err := interp.RunSequential(orig, w1, iters)
	if err != nil {
		t.Fatalf("original run: %v", err)
	}
	w2 := w1.Clone()
	tr2, err := interp.RunSequential(trans, w2, iters)
	if err != nil {
		t.Fatalf("transformed run: %v", err)
	}
	if diff := interp.TraceEqual(tr1, tr2); diff != "" {
		t.Fatalf("behaviour changed: %s\ntransformed:\n%s", diff, trans.Func)
	}
}

const diamondSrc = `pps P { loop {
	var n = pkt_rx();
	var x = 0;
	if (n > 2) { x = 10; } else { x = 20; }
	trace(x + n);
} }`

func TestBuildDiamondHasPhi(t *testing.T) {
	prog := compileSSA(t, diamondSrc)
	phis := 0
	for _, b := range prog.Func.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				phis++
			}
		}
	}
	if phis == 0 {
		t.Error("diamond join should contain a phi")
	}
}

func TestBuildPreservesSemanticsDiamond(t *testing.T) {
	tracesMatch(t, diamondSrc, Build, [][]byte{{1}, {1, 2, 3}, {1, 2, 3, 4}}, 3)
}

func TestBuildPreservesSemanticsLoop(t *testing.T) {
	src := `pps P { loop {
		var n = pkt_rx();
		var sum = 0;
		for[20] (var i = 0; i < n; i = i + 1) { sum = sum + pkt_byte(i); }
		trace(sum);
	} }`
	tracesMatch(t, src, Build, [][]byte{{1, 2, 3}, {10, 20}}, 2)
}

func TestBuildPreservesSemanticsNestedControl(t *testing.T) {
	src := `pps P { loop {
		var n = pkt_rx();
		var acc = 0;
		var i = 0;
		while[10] (i < 5) {
			if (i % 2 == 0) {
				acc += i;
				if (acc > 4) { break; }
			} else {
				acc += 2 * i;
			}
			i = i + 1;
		}
		switch (acc % 3) {
		case 0: trace(acc);
		case 1: trace(-acc);
		default: trace(0);
		}
	} }`
	tracesMatch(t, src, Build, [][]byte{{5}}, 2)
}

func TestBuildPreservesSemanticsShortCircuit(t *testing.T) {
	src := `pps P { loop {
		var n = pkt_rx();
		if (n > 0 && pkt_byte(0) > 10 || n == 2) { trace(1); } else { trace(0); }
	} }`
	tracesMatch(t, src, Build, [][]byte{{50}, {1, 2}, {}}, 4)
}

func TestBuildPersistentState(t *testing.T) {
	src := `pps P {
		persistent var total = 0;
		loop { var n = pkt_rx(); total = total + (n > 0 ? n : 0); trace(total); }
	}`
	tracesMatch(t, src, Build, [][]byte{{1}, {2, 2}, {3, 3, 3}}, 4)
}

func TestBuildSingleDefPerRegister(t *testing.T) {
	prog := compileSSA(t, `pps P { loop {
		var x = 1;
		x = x + 1;
		x = x * 2;
		if (x > 3) { x = 0; }
		trace(x);
	} }`)
	seen := make(map[int]bool)
	for _, b := range prog.Func.Blocks {
		for _, in := range b.Instrs {
			for _, d := range in.Defines() {
				if seen[d] {
					t.Fatalf("register r%d defined twice", d)
				}
				seen[d] = true
			}
		}
	}
}

func TestBuildPrunesDeadPhis(t *testing.T) {
	// x is dead after the if; pruned SSA should not insert a phi for it
	// at the join.
	prog := compileSSA(t, `pps P { loop {
		var n = pkt_rx();
		var x = 0;
		if (n > 0) { x = 1; trace(x); }
		trace(n);
	} }`)
	for _, b := range prog.Func.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				t.Errorf("unexpected phi for dead variable: %s in b%d", in, b.ID)
			}
		}
	}
}

func TestDestructRoundTrip(t *testing.T) {
	both := func(f *ir.Func) {
		Build(f)
		Destruct(f)
	}
	tracesMatch(t, diamondSrc, both, [][]byte{{1}, {1, 2, 3}, {1, 2, 3, 4}}, 3)
	if prog := func() *ir.Program {
		p, _ := ppc.Compile(diamondSrc)
		both(p.Func)
		return p
	}(); prog != nil {
		for _, b := range prog.Func.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpPhi {
					t.Error("Destruct left a phi behind")
				}
			}
		}
		if err := prog.Func.Verify(ir.VerifyMutable); err != nil {
			t.Errorf("destructed function invalid: %v", err)
		}
	}
}

func TestDestructLoopCarriedSwap(t *testing.T) {
	// Classic swap pattern inside an inner loop: a,b = b,a each trip.
	// Destruct with dedicated temporaries must keep it correct.
	src := `pps P { loop {
		var a = 1;
		var b = 2;
		for[10] (var i = 0; i < 5; i = i + 1) {
			var t = a;
			a = b;
			b = t;
		}
		trace(a); trace(b);
	} }`
	both := func(f *ir.Func) {
		Build(f)
		Destruct(f)
	}
	tracesMatch(t, src, both, nil, 1)
}

func TestBuildIdempotentOnStraightLine(t *testing.T) {
	prog := compileSSA(t, `pps P { loop { trace(1 + 2); } }`)
	for _, b := range prog.Func.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				t.Error("straight-line code should have no phis")
			}
		}
	}
}

func TestRemoveUnreachableKeepsSemantics(t *testing.T) {
	src := `pps P { loop { continue; trace(99); } }`
	tracesMatch(t, src, func(f *ir.Func) { ir.RemoveUnreachable(f, nil) }, nil, 2)
	prog, _ := ppc.Compile(src)
	n := len(prog.Func.Blocks)
	ir.RemoveUnreachable(prog.Func, nil)
	if len(prog.Func.Blocks) >= n {
		t.Error("RemoveUnreachable did not drop the dead block")
	}
}
