package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/ir"
)

func TestThreadJumpsThroughEmptyBlocks(t *testing.T) {
	f := ir.NewFunc("thread")
	bl := ir.NewBuilder(f)
	hop1 := f.NewBlock("hop1")
	hop2 := f.NewBlock("hop2")
	final := f.NewBlock("final")
	bl.Jmp(hop1)
	bl.SetBlock(hop1)
	bl.Jmp(hop2)
	bl.SetBlock(hop2)
	bl.Jmp(final)
	bl.SetBlock(final)
	bl.Ret()

	cleanupFunc(f, new(workspace))
	// Everything should collapse into a single block ending in ret.
	if len(f.Blocks) != 1 {
		t.Fatalf("after cleanup %d blocks remain:\n%s", len(f.Blocks), f)
	}
	if f.Blocks[0].Term().Op != ir.OpRet {
		t.Error("merged block does not end in ret")
	}
}

func TestCollapseTrivialBranch(t *testing.T) {
	f := ir.NewFunc("trivial")
	bl := ir.NewBuilder(f)
	same := f.NewBlock("same")
	c := bl.Const(1)
	bl.Br(c, same, same)
	bl.SetBlock(same)
	bl.Ret()

	cleanupFunc(f, new(workspace))
	for _, b := range f.Blocks {
		if term := b.Term(); term != nil && term.Op == ir.OpBr {
			t.Error("trivial branch survived cleanup")
		}
	}
}

func TestTrivialSwitchCollapses(t *testing.T) {
	f := ir.NewFunc("swtriv")
	bl := ir.NewBuilder(f)
	tgt := f.NewBlock("t")
	v := bl.Const(2)
	bl.Switch(v, []int64{0, 1}, []*ir.Block{tgt, tgt, tgt})
	bl.SetBlock(tgt)
	bl.Ret()

	cleanupFunc(f, new(workspace))
	for _, b := range f.Blocks {
		if term := b.Term(); term != nil && term.Op == ir.OpSwitch {
			t.Error("trivial switch survived cleanup")
		}
	}
	// The const feeding it becomes dead and must go too.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpConst {
				t.Error("dead switch selector const survived")
			}
		}
	}
}

func TestCleanupKeepsEffectfulDeadResults(t *testing.T) {
	f := ir.NewFunc("effect")
	bl := ir.NewBuilder(f)
	_ = bl.Call("pkt_rx") // result unused but the call has effects
	bl.Ret()
	cleanupFunc(f, new(workspace))
	found := false
	for _, in := range f.Blocks[0].Instrs {
		if in.Op == ir.OpCall {
			found = true
		}
	}
	if !found {
		t.Error("cleanup removed an effectful call")
	}
}

func TestCleanupKeepsTransmissionCode(t *testing.T) {
	f := ir.NewFunc("tx")
	bl := ir.NewBuilder(f)
	slot := f.NewReg()
	f.Blocks[0].Instrs = append(f.Blocks[0].Instrs,
		&ir.Instr{Op: ir.OpConst, Dst: slot, Imm: 1, Tx: true},
		&ir.Instr{Op: ir.OpSendLS, Dst: ir.NoReg, Args: []int{slot}, Tx: true},
	)
	bl.SetBlock(f.Blocks[0])
	bl.Ret()
	cleanupFunc(f, new(workspace))
	ops := map[ir.Op]bool{}
	for _, in := range f.Blocks[0].Instrs {
		ops[in.Op] = true
	}
	if !ops[ir.OpSendLS] || !ops[ir.OpConst] {
		t.Errorf("cleanup removed transmission code:\n%s", f)
	}
}

func TestCleanupRemovesUnreachableRegions(t *testing.T) {
	f := ir.NewFunc("unreach")
	bl := ir.NewBuilder(f)
	dead := f.NewBlock("dead")
	bl.Ret()
	bl.SetBlock(dead)
	bl.CallVoid("trace", bl.Const(1))
	bl.Ret()
	cleanupFunc(f, new(workspace))
	if len(f.Blocks) != 1 {
		t.Errorf("unreachable block survived: %d blocks", len(f.Blocks))
	}
}

func TestCleanupFixpointLadder(t *testing.T) {
	// A ladder of branches whose arms are all empty collapses fully once
	// jump threading, trivial-branch collapsing and merging interact.
	f := ir.NewFunc("ladder")
	bl := ir.NewBuilder(f)
	c := bl.Const(1)
	cur := f.Blocks[0]
	for i := 0; i < 4; i++ {
		a := f.NewBlock("a")
		bb := f.NewBlock("b")
		j := f.NewBlock("j")
		bl.SetBlock(cur)
		bl.Br(c, a, bb)
		bl.SetBlock(a)
		bl.Jmp(j)
		bl.SetBlock(bb)
		bl.Jmp(j)
		cur = j
	}
	bl.SetBlock(cur)
	bl.CallVoid("trace", c)
	bl.Ret()

	cleanupFunc(f, new(workspace))
	if len(f.Blocks) != 1 {
		t.Errorf("ladder did not collapse: %d blocks remain\n%s", len(f.Blocks), f)
	}
}

// A switch that reaches its default successor through a case too must not
// absorb that successor's switch: the case would land on the stub left in
// its place. Here x == 2 reaches the second switch through a case of the
// first and must still take the second's case 2.
func TestFoldSwitchChainsSkipsDefaultReachedByCase(t *testing.T) {
	f := ir.NewFunc("fold")
	bl := ir.NewBuilder(f)
	drop := f.NewBlock("drop")
	join := f.NewBlock("join")
	five := f.NewBlock("five")
	tail := f.NewBlock("tail")
	x := bl.Call("pkt_rx")
	bl.Switch(x, []int64{1, 2}, []*ir.Block{drop, join, join})
	bl.SetBlock(drop)
	bl.CallVoid("trace", bl.Const(1))
	bl.Ret()
	bl.SetBlock(join)
	bl.Switch(x, []int64{2}, []*ir.Block{five, tail})
	bl.SetBlock(five)
	bl.CallVoid("trace", bl.Const(5))
	bl.Jmp(tail)
	bl.SetBlock(tail)
	bl.CallVoid("trace", x)
	bl.Ret()

	cleanupFunc(f, new(workspace))
	// Walk the cleaned function for x == 2: it must trace 5, then x.
	consts := map[int]int64{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpConst {
				consts[in.Dst] = in.Imm
			}
		}
	}
	var traced []string
	for b, steps := f.Blocks[f.Entry], 0; b != nil && steps < len(f.Blocks); steps++ {
		var next *ir.Block
		for _, in := range b.Instrs {
			switch {
			case in.Op == ir.OpCall && in.Call == "trace" && in.Args[0] == x:
				traced = append(traced, "x")
			case in.Op == ir.OpCall && in.Call == "trace":
				traced = append(traced, fmt.Sprint(consts[in.Args[0]]))
			case in.Op == ir.OpSwitch:
				next = f.Blocks[in.Targets[len(in.Targets)-1]]
				if i := slices.Index(in.Cases, 2); i >= 0 {
					next = f.Blocks[in.Targets[i]]
				}
			case in.Op == ir.OpJmp:
				next = f.Blocks[in.Targets[0]]
			}
		}
		b = next
	}
	if got := strings.Join(traced, " "); got != "5 x" {
		t.Errorf("x == 2 traces %q, want \"5 x\":\n%s", got, f)
	}
}
