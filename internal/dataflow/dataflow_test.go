package dataflow_test

import (
	"testing"

	. "repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/ppc"
	"repro/internal/ssa"
)

func compile(t *testing.T, src string, toSSA bool) *ir.Func {
	t.Helper()
	prog, err := ppc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if toSSA {
		ssa.Build(prog.Func)
	}
	return prog.Func
}

func TestLivenessStraightLine(t *testing.T) {
	f := ir.NewFunc("s")
	bl := ir.NewBuilder(f)
	a := bl.Const(1)
	b := bl.Const(2)
	c := bl.Bin(ir.OpAdd, a, b)
	bl.CallVoid("trace", c)
	bl.Ret()
	lv := ComputeLiveness(f)
	// Nothing is live into the entry of a straight-line function.
	if lv.In[0].Count() != 0 {
		t.Errorf("live-in of entry = %v, want empty", lv.In[0].Slice())
	}
	if lv.Out[0].Count() != 0 {
		t.Errorf("live-out of exit block = %v, want empty", lv.Out[0].Slice())
	}
}

func TestLivenessAcrossBranch(t *testing.T) {
	// r defined in entry, used in both arms: live into both.
	f := ir.NewFunc("b")
	bl := ir.NewBuilder(f)
	then := f.NewBlock("then")
	els := f.NewBlock("else")
	v := bl.Const(5)
	c := bl.Const(1)
	bl.Br(c, then, els)
	bl.SetBlock(then)
	bl.CallVoid("trace", v)
	bl.Ret()
	bl.SetBlock(els)
	bl.CallVoid("trace", v)
	bl.Ret()
	lv := ComputeLiveness(f)
	if !lv.In[then.ID].Has(v) || !lv.In[els.ID].Has(v) {
		t.Error("v should be live into both arms")
	}
	if !lv.Out[0].Has(v) {
		t.Error("v should be live out of entry")
	}
	if lv.In[0].Has(v) {
		t.Error("v should not be live into entry (defined there)")
	}
}

func TestLivenessLoop(t *testing.T) {
	// Loop-carried: i used and redefined in body; live around the back edge.
	f := compile(t, `pps P { loop {
		var i = 0;
		while[8] (i < 5) { i = i + 1; }
		trace(i);
	} }`, false)
	lv := ComputeLiveness(f)
	// Find the while header (has LoopBound).
	for _, b := range f.Blocks {
		if b.LoopBound == 8 {
			if lv.In[b.ID].Count() == 0 {
				t.Error("loop header should have live-in registers (i)")
			}
		}
	}
}

func TestLivenessPhiEdgeSemantics(t *testing.T) {
	f := compile(t, `pps P { loop {
		var n = pkt_rx();
		var x = 0;
		if (n > 0) { x = 1; } else { x = 2; }
		trace(x);
	} }`, true)
	lv := ComputeLiveness(f)
	// Find the phi and check each operand is live out of its pred only.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpPhi {
				continue
			}
			for i, p := range in.PhiPreds {
				arg := in.Args[i]
				if !lv.Out[p].Has(arg) {
					t.Errorf("phi operand r%d not live out of its pred b%d", arg, p)
				}
				// And not live into the phi block itself as a plain use.
				for j, q := range in.PhiPreds {
					if i != j && lv.Out[q].Has(arg) {
						// The same value may legitimately flow on both
						// edges only if it is the same register.
						if in.Args[j] != arg {
							t.Errorf("phi operand r%d live out of unrelated pred b%d", arg, q)
						}
					}
				}
			}
		}
	}
}
