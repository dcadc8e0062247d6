package core_test

import (
	"fmt"
	"testing"

	. "repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
	"repro/internal/ssa"
)

// loopStage builds the two stages ssa.Destruct gives each phi a temporary
// for: an entry, a one-block loop that both heads and closes itself and runs
// as many times as the packet is long, and an exit. body fills the loop
// after its counter and returns the phis whose values the exit traces.
func loopStage(name string, body func(bl *ir.Builder, entry, loop *ir.Block) []int) *ir.Program {
	f := ir.NewFunc(name)
	bl := ir.NewBuilder(f)
	entry, loop, exit := f.Blocks[0], f.NewBlock("loop"), f.NewBlock("exit")
	n := bl.Call("pkt_rx")
	zero, one := bl.Const(0), bl.Const(1)
	bl.Jmp(loop)
	bl.SetBlock(loop)
	i, next := f.NewReg(), f.NewReg()
	bl.Cur.Instrs = append(bl.Cur.Instrs, &ir.Instr{Op: ir.OpPhi, Dst: i, Args: []int{zero, next}, PhiPreds: []int{entry.ID, loop.ID}})
	traced := body(bl, entry, loop)
	bl.Cur.Instrs = append(bl.Cur.Instrs, &ir.Instr{Op: ir.OpAdd, Dst: next, Args: []int{i, one}})
	bl.Br(bl.Bin(ir.OpLt, next, n), loop, exit)
	bl.SetBlock(exit)
	for _, r := range traced {
		bl.CallVoid("trace", r)
	}
	bl.Ret()
	return &ir.Program{Name: name, Func: f}
}

// phi prepends dst = φ(entry: a, loop: b) to the loop block.
func phi(loop *ir.Block, entry, dst, a, b int) {
	in := &ir.Instr{Op: ir.OpPhi, Dst: dst, Args: []int{a, b}, PhiPreds: []int{entry, loop.ID}}
	loop.Instrs = append([]*ir.Instr{in}, loop.Instrs...)
}

// coalesced returns p lowered out of SSA and coalesced, after checking that
// it runs to the trace p does on the interpreter.
func coalesced(t *testing.T, p *ir.Program) *ir.Func {
	t.Helper()
	packets := [][]byte{{}, {1}, {1, 2}, {1, 2, 3, 4, 5}}
	want, err := interp.RunSequential(p.Clone(), interp.NewWorld(packets), len(packets))
	if err != nil {
		t.Fatal(err)
	}
	q := p.Clone()
	ssa.Destruct(q.Func)
	CoalesceCopies(q.Func)
	if err := q.Func.Verify(ir.VerifyMutable); err != nil {
		t.Fatalf("%v\n%s", err, q.Func)
	}
	got, err := interp.RunSequential(q.Clone(), interp.NewWorld(packets), len(packets))
	if err != nil {
		t.Fatal(err)
	}
	if diff := interp.TraceEqual(want, got); diff != "" {
		t.Fatalf("coalesced stage diverges from the SSA one: %s\n%s", diff, q.Func)
	}
	return q.Func
}

// TestCoalesceKeepsLostCopy: the loop's phi x is traced after the loop, so it
// is live out of the block that also computes its next value. Destruct's
// temporary carries that value across the edge; the coalescer must not merge
// x with it, or the exit would trace the next value instead of x.
func TestCoalesceKeepsLostCopy(t *testing.T) {
	var x, next int
	p := loopStage("lostcopy", func(bl *ir.Builder, entry, loop *ir.Block) []int {
		x, next = bl.Func.NewReg(), bl.Func.NewReg()
		phi(loop, entry.ID, x, bl.Const(7), next)
		bl.Cur.Instrs = append(bl.Cur.Instrs, &ir.Instr{Op: ir.OpAdd, Dst: next, Args: []int{x, x}})
		return []int{x}
	})
	f := coalesced(t, p)
	traced, added := -1, -1
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch {
			case in.Op == ir.OpCall && in.Call == "trace":
				traced = in.Args[0]
			case in.Op == ir.OpAdd && in.Args[0] == in.Args[1]:
				added = in.Dst
			}
		}
	}
	if traced < 0 || traced == added {
		t.Errorf("the phi and its next value share r%d:\n%s", added, f)
	}
}

// TestCoalesceKeepsSwap: two phis take each other's value on every trip, so
// each is live where the other's next value is written. The coalescer must
// keep them, and a copy between them, apart.
func TestCoalesceKeepsSwap(t *testing.T) {
	var a, b int
	p := loopStage("swap", func(bl *ir.Builder, entry, loop *ir.Block) []int {
		a, b = bl.Func.NewReg(), bl.Func.NewReg()
		phi(loop, entry.ID, a, bl.Const(1), b)
		phi(loop, entry.ID, b, bl.Const(2), a)
		bl.CallVoid("trace", a)
		return []int{a, b}
	})
	f := coalesced(t, p)
	copies, exit := 0, f.Blocks[2]
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCopy {
				copies++
			}
		}
	}
	var traced []int
	for _, in := range exit.Instrs {
		if in.Op == ir.OpCall {
			traced = append(traced, in.Args[0])
		}
	}
	if copies == 0 || len(traced) != 2 || traced[0] == traced[1] {
		t.Errorf("the swapped phis were merged (%d copies left, exit traces %v):\n%s", copies, traced, f)
	}
}

// TestStageCopiesInterfere is the coalescer's census: no stage of the six
// netbench PPS at D=1..10, and no Coarsen unit of any fuse mask at D=2..5,
// keeps a copy whose two registers do not interfere in the program as
// realized, and the stages hold at most 60 copies in all (1,375 before
// realization coalesced: two per phi, one per merged slot write).
func TestStageCopiesInterfere(t *testing.T) {
	total := 0
	for _, name := range []string{"RX", "IPv4", "Scheduler", "QM", "TX", "IP(v4)"} {
		pps, _ := netbench.ByName(name)
		prog, err := pps.Compile()
		if err != nil {
			t.Fatal(err)
		}
		a, err := Analyze(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for d := 1; d <= 10; d++ {
			res, err := a.Partition(Options{Stages: d})
			if err != nil {
				t.Fatalf("%s D=%d: %v", name, d, err)
			}
			for k, s := range res.Stages {
				n += checkCopiesInterfere(t, fmt.Sprintf("%s D=%d stage %d", name, d, k+1), s.Func)
			}
			for fuse := uint64(0); d >= 2 && d <= 5 && fuse < 1<<(d-1); fuse++ {
				units, err := res.Coarsen(fuse)
				if err != nil {
					t.Fatalf("%s D=%d fuse %#x: %v", name, d, fuse, err)
				}
				for _, u := range units {
					checkCopiesInterfere(t, fmt.Sprintf("%s D=%d fuse %#x unit %d..%d", name, d, fuse, u.First, u.Last), u.Prog.Func)
				}
			}
		}
		t.Logf("%s: %d copies in the stages of D=1..10", name, n)
		total += n
	}
	t.Logf("six PPS: %d copies", total)
	if total > 60 {
		t.Errorf("six PPS: %d copies left in the stages of D=1..10, over 60", total)
	}
}

// checkCopiesInterfere fails on a copy in f whose registers do not
// interfere — neither is defined, other than by a copy from the other, at
// a point where the other is live after — and returns f's copy count.
func checkCopiesInterfere(t *testing.T, tag string, f *ir.Func) int {
	t.Helper()
	live := dataflow.ComputeLiveness(f)
	conflict := make(map[[2]int]bool)
	for _, b := range f.Blocks {
		now := make([]bool, f.NumRegs)
		live.Out[b.ID].ForEach(func(r int) { now[r] = true })
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			for _, d := range in.Defines() {
				for r, l := range now {
					if l && r != d && !(in.Op == ir.OpCopy && in.Args[0] == r) {
						conflict[[2]int{min(r, d), max(r, d)}] = true
					}
				}
			}
			for _, d := range in.Defines() {
				now[d] = false
			}
			for _, u := range in.Uses() {
				now[u] = true
			}
		}
	}
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpCopy {
				continue
			}
			n++
			d, a := in.Dst, in.Args[0]
			if !conflict[[2]int{min(d, a), max(d, a)}] {
				t.Errorf("%s: b%d: %s copies between registers that never interfere", tag, b.ID, in)
			}
		}
	}
	return n
}
