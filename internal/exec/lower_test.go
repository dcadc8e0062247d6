package exec_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
	"repro/internal/ssa"
)

// The programs below are built by hand so each one has exactly the shape a
// lowering pass keys on; every one is then held byte-identical to the
// interpreter — trace, error text and the trace prefix before an error.

// build assembles a one-function program: body emits into the entry block
// and may add more, phis included. ssa.Destruct then turns the phis into
// copies, as realization does, so both backends run the phi-free program
// exec takes.
func build(name string, body func(bl *ir.Builder)) *ir.Program {
	f := ir.NewFunc(name)
	body(ir.NewBuilder(f))
	ssa.Destruct(f)
	return &ir.Program{Name: name, Func: f}
}

// outcome is everything observable about a sequential run.
type outcome struct {
	trace []interp.Event
	err   string
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func runInterp(prog *ir.Program, packets [][]byte, iters int) outcome {
	w := interp.NewWorld(packets)
	_, err := interp.RunSequential(prog.Clone(), w, iters)
	return outcome{w.Trace, errText(err)}
}

func runExec(prog *ir.Program, packets [][]byte, iters int) (outcome, exec.Lowered) {
	w := interp.NewWorld(packets)
	r := exec.NewRunner(prog.Clone(), w)
	ctx := interp.NewIterCtx()
	var err error
	for i := 0; i < iters && err == nil; i++ {
		if _, err = r.RunIterationInto(ctx, nil, nil); err != nil {
			err = fmt.Errorf("iteration %d: %w", i, err)
		}
		ctx.Reset()
	}
	return outcome{w.Trace, errText(err)}, r.Lowered()
}

// same runs prog on both backends over packets (one iteration per packet
// plus one on the exhausted stream) and fails on any observable difference.
func same(t *testing.T, prog *ir.Program, packets [][]byte) exec.Lowered {
	t.Helper()
	iters := len(packets) + 1
	want := runInterp(prog, packets, iters)
	got, low := runExec(prog, packets, iters)
	if want.err != got.err {
		t.Fatalf("%s: errors diverge:\ninterp: %q\nexec:   %q", prog.Name, want.err, got.err)
	}
	if diff := interp.TraceEqual(want.trace, got.trace); diff != "" {
		t.Fatalf("%s: %s\n%s", prog.Name, diff, prog.Func)
	}
	return low
}

func word(v int64) []byte { return binary.BigEndian.AppendUint64(nil, uint64(v)) }

// word64 emits the packet's first eight bytes as one register: a value the
// lowering cannot know.
func word64(bl *ir.Builder) int {
	hi := bl.Call("pkt_word", bl.Const(0))
	lo := bl.Call("pkt_word", bl.Const(4))
	return bl.Bin(ir.OpOr, bl.Bin(ir.OpShl, hi, bl.Const(32)), lo)
}

var edgeValues = []int64{0, 1, -1, 2, 7, 8, 63, 64, 65, 255, -8, -64, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}

var binaryOps = []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod, ir.OpAnd, ir.OpOr, ir.OpXor,
	ir.OpShl, ir.OpShr, ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe}

// TestFoldedOperators folds every pure operator and pure intrinsic over the
// edge values at set-up — ÷0, MinInt64 / -1 and % -1, shift counts ≥ 64 and
// negative — and checks nothing is left to run but the traces.
func TestFoldedOperators(t *testing.T) {
	prog := build("folded", func(bl *ir.Builder) {
		for _, a := range edgeValues {
			ra := bl.Const(a)
			for _, op := range []ir.Op{ir.OpNeg, ir.OpNot, ir.OpBNot} {
				bl.CallVoid("trace", bl.Un(op, ra))
			}
			bl.CallVoid("trace", bl.Call("csum_fold", ra))
			bl.CallVoid("trace", bl.Call("hash_crc", bl.Copy(ra)))
			for _, b := range edgeValues {
				rb := bl.Const(b)
				for _, op := range binaryOps {
					bl.CallVoid("trace", bl.Bin(op, ra, rb))
				}
			}
		}
		bl.Ret()
	})
	low := same(t, prog, nil)
	traces := len(edgeValues) * (5 + len(edgeValues)*len(binaryOps))
	if low.Ops != traces+1 || low.Resets != 0 {
		t.Fatalf("expected %d traces and a ret to survive, no resets: %+v", traces, low)
	}
}

// TestImmediateOperators runs every binary operator with a constant on
// either side of a value that arrives in the packet, over the edge values.
func TestImmediateOperators(t *testing.T) {
	var packets [][]byte
	for _, v := range edgeValues {
		packets = append(packets, word(v))
	}
	for _, k := range edgeValues {
		prog := build(fmt.Sprintf("imm(%d)", k), func(bl *ir.Builder) {
			bl.Call("pkt_rx")
			x := word64(bl)
			for _, op := range binaryOps {
				bl.CallVoid("trace", bl.Bin(op, x, bl.Const(k)))
				bl.CallVoid("trace", bl.Bin(op, bl.Const(k), x))
			}
			bl.Ret()
		})
		same(t, prog, packets)
	}
}

// TestPacketSuperinstructions runs pkt_byte #k, the big-endian 16-bit load,
// load-and-accumulate, pkt_setbyte #k and constant-index meta_set/meta_get
// at offsets negative, inside, straddling, equal to and past len(Pkt), on
// packets of several lengths (none at all included).
func TestPacketSuperinstructions(t *testing.T) {
	packets := [][]byte{{}, {0x11}, {0x11, 0x22}, {1, 2, 3, 4, 5}, {0xFF, 0xFE, 0xFD, 0xFC, 0xFB, 0xFA}}
	for _, off := range []int64{math.MinInt64, -2, -1, 0, 1, 3, 4, 5, 6, 15, 16, 17, 1 << 40, math.MaxInt64} {
		be16 := func(bl *ir.Builder, a, b int64) int {
			hi := bl.Bin(ir.OpShl, bl.Call("pkt_byte", bl.Const(a)), bl.Const(8))
			return bl.Bin(ir.OpOr, hi, bl.Call("pkt_byte", bl.Const(b)))
		}
		prog := build(fmt.Sprintf("pkt(%d)", off), func(bl *ir.Builder) {
			n := bl.Call("pkt_rx")
			bl.CallVoid("trace", bl.Call("pkt_byte", bl.Const(off)))
			bl.CallVoid("trace", be16(bl, off, off+1))
			bl.CallVoid("trace", be16(bl, off+1, off)) // little-endian order: still two independent loads
			bl.CallVoid("trace", bl.Bin(ir.OpAdd, n, be16(bl, off, off+1)))
			bl.CallVoid("trace", bl.Bin(ir.OpAdd, be16(bl, off-1, off), n))
			bl.CallVoid("pkt_setbyte", bl.Const(off), bl.Bin(ir.OpAdd, n, bl.Const(0x1A0)))
			bl.CallVoid("trace", bl.Call("pkt_setbyte", bl.Const(off+1), n)) // result register: always 0
			bl.CallVoid("meta_set", bl.Const(off), n)
			bl.CallVoid("trace", bl.Call("meta_set", bl.Const(off+1), bl.Const(77)))
			bl.CallVoid("trace", bl.Call("meta_get", bl.Const(off)))
			bl.CallVoid("trace", bl.Call("meta_get", bl.Const(off+1)))
			bl.CallVoid("trace", bl.Call("meta_get", bl.Const(off+2)))
			bl.CallVoid("pkt_send", bl.Const(1))
			bl.Ret()
		})
		if low := same(t, prog, packets); low.Fused < 14 {
			t.Fatalf("%s: superinstructions did not form: %+v", prog.Name, low)
		}
	}
}

// TestBE16NotAcrossPacketWrite puts a pkt_setbyte, or a second pkt_rx,
// between the two loads of a 16-bit load: fusing would read the first byte
// after the write.
func TestBE16NotAcrossPacketWrite(t *testing.T) {
	packets := [][]byte{{1, 2, 3}, {9, 8, 7}, {5}}
	for _, between := range []string{"", "pkt_setbyte", "pkt_rx"} {
		prog := build("be16/"+between, func(bl *ir.Builder) {
			bl.Call("pkt_rx")
			hi := bl.Bin(ir.OpShl, bl.Call("pkt_byte", bl.Const(0)), bl.Const(8))
			switch between {
			case "pkt_setbyte":
				bl.CallVoid("pkt_setbyte", bl.Const(0), bl.Const(0x55))
			case "pkt_rx":
				bl.Call("pkt_rx")
			}
			bl.CallVoid("trace", bl.Bin(ir.OpOr, hi, bl.Call("pkt_byte", bl.Const(1))))
			bl.Ret()
		})
		low := same(t, prog, packets)
		if fused := low.Fused > 0; fused != (between == "") {
			t.Fatalf("%s: fused=%v: %+v", prog.Name, fused, low)
		}
	}
}

// TestCompareBranchFusion fuses a comparison into the br that alone reads
// it — unless an operand is redefined between the two, or something else
// reads the result too.
func TestCompareBranchFusion(t *testing.T) {
	var packets [][]byte
	for _, v := range []int64{0, 4, 5, 6, -1, math.MinInt64} {
		packets = append(packets, word(v))
	}
	for _, op := range []ir.Op{ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe} {
		for _, imm := range []bool{false, true} {
			for _, spoil := range []string{"", "clobber", "reuse"} {
				clobber, reuse := spoil == "clobber", spoil == "reuse"
				name := fmt.Sprintf("cmpbr/%s/imm=%v/%s", op, imm, spoil)
				prog := build(name, func(bl *ir.Builder) {
					f := bl.Func
					then, els := f.NewBlock("then"), f.NewBlock("else")
					bl.Call("pkt_rx")
					x := bl.Copy(word64(bl))
					var y int
					if imm {
						y = bl.Const(5)
					} else {
						y = bl.Call("pkt_len")
					}
					c := bl.Bin(op, x, y)
					if clobber {
						bl.CopyTo(x, bl.Const(5)) // x is now a second value; c was computed from the first
					}
					bl.Br(c, then, els)
					bl.SetBlock(then)
					bl.CallVoid("trace", bl.Const(1))
					bl.CallVoid("trace", x)
					if reuse {
						bl.CallVoid("trace", c) // a second reader: c must stay a register
					}
					bl.Ret()
					bl.SetBlock(els)
					bl.CallVoid("trace", bl.Const(0))
					bl.CallVoid("trace", x)
					bl.Ret()
				})
				low := same(t, prog, packets)
				// word64 fuses nothing; the compare is the only candidate.
				if fused := low.Fused > 0; fused != (spoil == "") {
					t.Fatalf("%s: fused=%v: %+v", name, fused, low)
				}
			}
		}
	}
}

// TestSwitchForms drives a dense switch (a jump table), a sparse one (the
// linear scan), a single case and duplicate cases through every case, the
// default, and values just outside and far outside the table.
func TestSwitchForms(t *testing.T) {
	forms := map[string][]int64{
		"dense":     {3, 4, 5, 7},
		"negative":  {-2, -1, 0, 1},
		"single":    {0},
		"duplicate": {1, 2, 1, 2, 3},
		"sparse":    {math.MinInt64, 0, math.MaxInt64},
		"wide":      {0, 1000},
		"none":      {},
	}
	var packets [][]byte
	for _, v := range []int64{-3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 999, 1000, 1001, math.MinInt64, math.MaxInt64} {
		packets = append(packets, word(v))
	}
	for name, cases := range forms {
		prog := build("switch/"+name, func(bl *ir.Builder) {
			f := bl.Func
			targets := make([]*ir.Block, len(cases)+1)
			for i := range targets {
				targets[i] = f.NewBlock("case")
			}
			bl.Call("pkt_rx")
			bl.Switch(word64(bl), cases, targets)
			for i, b := range targets {
				bl.SetBlock(b)
				bl.CallVoid("trace", bl.Const(int64(100+i)))
				bl.Ret()
			}
		})
		same(t, prog, packets)
	}
}

// TestFrameReset reads a merge register on a path that skips its write:
// the interpreter's zeroed frame makes that read 0 in every iteration, not
// the value an earlier iteration left in the slot.
func TestFrameReset(t *testing.T) {
	prog := build("reset", func(bl *ir.Builder) {
		f := bl.Func
		set, join := f.NewBlock("set"), f.NewBlock("join")
		merge := f.NewReg()
		n := bl.Call("pkt_rx")
		bl.Br(bl.Bin(ir.OpGt, n, bl.Const(1)), set, join)
		bl.SetBlock(set)
		bl.CopyTo(merge, n)
		bl.Jmp(join)
		bl.SetBlock(join)
		bl.CallVoid("trace", merge)
		bl.Ret()
	})
	low := same(t, prog, [][]byte{{1, 2, 3}, {1}, {1, 2}, {}})
	if low.Resets != 1 {
		t.Fatalf("expected the merge register alone on the reset list: %+v", low)
	}

	// One writer is not enough when it reads its own register first.
	prog = build("selffeed", func(bl *ir.Builder) {
		acc := bl.Func.NewReg()
		n := bl.Call("pkt_rx")
		bl.Cur.Instrs = append(bl.Cur.Instrs, &ir.Instr{Op: ir.OpAdd, Dst: acc, Args: []int{acc, n}})
		bl.CallVoid("trace", acc)
		bl.Ret()
	})
	if low := same(t, prog, [][]byte{{1, 2, 3}, {1}, {1, 2}}); low.Resets != 1 {
		t.Fatalf("expected the accumulator on the reset list: %+v", low)
	}
}

// TestMergedChains covers the control-flow rewrites: a chain of
// single-predecessor blocks whose phis became copies on the merged edges, a
// jump threaded through blocks whose bodies folded away, a br on a folded
// condition, and a block that falls off its end behind dropped
// instructions.
func TestMergedChains(t *testing.T) {
	packets := [][]byte{{4, 2}, {}, {9}}
	t.Run("phi-moves", func(t *testing.T) {
		prog := build("chain", func(bl *ir.Builder) {
			f := bl.Func
			b1, b2 := f.NewBlock("b1"), f.NewBlock("b2")
			n := bl.Call("pkt_rx")
			m := bl.Bin(ir.OpAdd, n, bl.Const(1))
			bl.Jmp(b1)
			// Parallel moves: p and q swap roles on the edge.
			p, q := f.NewReg(), f.NewReg()
			b1.Instrs = append(b1.Instrs,
				&ir.Instr{Op: ir.OpPhi, Dst: p, Args: []int{m}, PhiPreds: []int{0}},
				&ir.Instr{Op: ir.OpPhi, Dst: q, Args: []int{n}, PhiPreds: []int{0}})
			bl.SetBlock(b1)
			bl.CallVoid("trace", p)
			bl.Jmp(b2)
			p2, q2 := f.NewReg(), f.NewReg()
			b2.Instrs = append(b2.Instrs,
				&ir.Instr{Op: ir.OpPhi, Dst: p2, Args: []int{q}, PhiPreds: []int{b1.ID}},
				&ir.Instr{Op: ir.OpPhi, Dst: q2, Args: []int{p}, PhiPreds: []int{b1.ID}})
			bl.SetBlock(b2)
			bl.CallVoid("trace", bl.Bin(ir.OpSub, p2, q2))
			bl.Ret()
		})
		// rx, add, two copies; two copies, trace, two copies; two copies,
		// sub, trace, ret.
		if low := same(t, prog, packets); low.Ops != 14 {
			t.Fatalf("three blocks should have merged into one: %+v", low)
		}
	})
	t.Run("threaded", func(t *testing.T) {
		prog := build("thread", func(bl *ir.Builder) {
			f := bl.Func
			then, els, empty, exit := f.NewBlock("then"), f.NewBlock("else"), f.NewBlock("empty"), f.NewBlock("exit")
			n := bl.Call("pkt_rx")
			bl.Br(bl.Bin(ir.OpGt, n, bl.Const(1)), then, els)
			for i, b := range []*ir.Block{then, els} {
				bl.SetBlock(b)
				bl.CallVoid("trace", bl.Const(int64(i)))
				bl.Jmp(empty)
			}
			bl.SetBlock(empty) // two predecessors, nothing left to run
			bl.Bin(ir.OpAdd, bl.Const(2), bl.Const(3))
			bl.Br(bl.Const(1), exit, then)
			bl.SetBlock(exit)
			bl.Const(9)
			bl.Ret()
		})
		if low := same(t, prog, packets); low.Ops != 6 { // entry: rx, cmp-br; then, else: trace, ret
			t.Fatalf("both arms should end in their own ret: %+v", low)
		}
	})
	t.Run("copied-tail", func(t *testing.T) {
		// E has nothing but a br and two predecessors, so each absorbs a
		// copy of it. A's copy must not swallow the compare: lap 0 reaches
		// E through A, laps 1 and 2 through B, and there E's own br reads
		// the c that A wrote.
		prog := build("copied", func(bl *ir.Builder) {
			f := bl.Func
			head, a, b, e := f.NewBlock("head"), f.NewBlock("A"), f.NewBlock("B"), f.NewBlock("E")
			yes, no, latch, exit := f.NewBlock("T"), f.NewBlock("F"), f.NewBlock("latch"), f.NewBlock("exit")
			i := f.NewReg()
			bl.Call("pkt_rx")
			bl.ConstTo(i, 0)
			bl.Jmp(head)
			bl.SetBlock(head)
			x := bl.Call("pkt_byte", i)
			bl.Br(bl.Bin(ir.OpEq, i, bl.Const(0)), a, b)
			bl.SetBlock(a)
			c := bl.Bin(ir.OpLt, x, bl.Const(3))
			bl.Jmp(e)
			bl.SetBlock(b)
			bl.Jmp(e)
			bl.SetBlock(e)
			bl.Br(c, yes, no)
			for k, blk := range []*ir.Block{yes, no} {
				bl.SetBlock(blk)
				bl.CallVoid("trace", bl.Bin(ir.OpAdd, i, bl.Const(int64(100*k))))
				bl.Jmp(latch)
			}
			bl.SetBlock(latch)
			bl.CopyTo(i, bl.Bin(ir.OpAdd, i, bl.Const(1)))
			bl.Br(bl.Bin(ir.OpGe, i, bl.Const(3)), exit, head)
			bl.SetBlock(exit)
			bl.Ret()
		})
		same(t, prog, [][]byte{{1, 9, 9}, {7, 0, 0}})
	})
	t.Run("empty-cycle", func(t *testing.T) {
		prog := build("spin", func(bl *ir.Builder) {
			spin := bl.Func.NewBlock("spin")
			bl.CallVoid("trace", bl.Const(1))
			bl.Jmp(spin)
			bl.SetBlock(spin)
			bl.Const(2)
			bl.Jmp(spin)
		})
		same(t, prog, nil)
	})
	t.Run("fell-off", func(t *testing.T) {
		prog := build("fell", func(bl *ir.Builder) {
			b1 := bl.Func.NewBlock("b1")
			bl.CallVoid("trace", bl.Const(1))
			bl.Jmp(b1)
			bl.SetBlock(b1)
			bl.CallVoid("trace", bl.Const(2))
			bl.Const(3)
		})
		same(t, prog, nil)
	})
}

// TestStepLimitParityWithEffects runs a non-terminating loop whose body has
// foldable constants, a fusable 16-bit load, packet writes and two traces,
// spread over three blocks that merge into one. The prologue is padded by
// every length from zero up to one lap of the loop, so the limit lands once
// on every instruction of the body — dropped, fused, merged jump and
// terminator alike — and each time both backends must stop with the same
// error after the same events.
func TestStepLimitParityWithEffects(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 10⁶ interpreter steps per offset")
	}
	limitProg := func(pad int) *ir.Program {
		return build(fmt.Sprintf("limit/pad=%d", pad), func(bl *ir.Builder) {
			f := bl.Func
			head, mid, tail, exit := f.NewBlock("head"), f.NewBlock("mid"), f.NewBlock("tail"), f.NewBlock("exit")
			bl.Call("pkt_rx")
			for i := 0; i < pad; i++ {
				bl.Const(int64(i))
			}
			bl.Jmp(head)

			bl.SetBlock(head)
			one := bl.Const(1)
			hi := bl.Bin(ir.OpShl, bl.Call("pkt_byte", bl.Const(0)), bl.Const(8))
			v := bl.Bin(ir.OpOr, hi, bl.Call("pkt_byte", one))
			bl.CallVoid("trace", v)
			bl.Jmp(mid)

			bl.SetBlock(mid)
			nv := bl.Bin(ir.OpAdd, v, one)
			bl.CallVoid("pkt_setbyte", one, nv)
			bl.CallVoid("pkt_setbyte", bl.Const(0), bl.Bin(ir.OpShr, nv, bl.Const(8)))
			bl.Jmp(tail)

			bl.SetBlock(tail)
			bl.CallVoid("trace", nv)
			bl.Br(bl.Copy(one), head, exit)

			bl.SetBlock(exit)
			bl.Ret()
		})
	}
	body := 0 // instructions in head, mid and tail: one lap of the loop
	for _, b := range limitProg(0).Func.Blocks[1:4] {
		body += len(b.Instrs)
	}
	for pad := 0; pad < body; pad++ {
		prog := limitProg(pad)
		want := runInterp(prog, [][]byte{{0, 0}}, 1)
		got, low := runExec(prog, [][]byte{{0, 0}}, 1)
		if want.err == "" || want.err != got.err {
			t.Fatalf("pad %d: errors diverge:\ninterp: %q\nexec:   %q", pad, want.err, got.err)
		}
		if diff := interp.TraceEqual(want.trace, got.trace); diff != "" {
			t.Fatalf("pad %d: trace prefix: %s", pad, diff)
		}
		if low.Folded < 6 || low.Fused < 5 || low.Ops > 12 {
			t.Fatalf("the body should fold its constants, fuse its load and merge its blocks: %+v", low)
		}
	}
}

// sameBatched runs prog on the interpreter one packet at a time, each
// iteration on past an error in the one before, and on the compiled backend
// as one batch of all of them: every iteration's events must agree, and the
// batch's error must be the first iteration's that failed.
func sameBatched(t *testing.T, prog *ir.Program, packets [][]byte) {
	t.Helper()
	r := interp.NewStageRunners([]*ir.Program{prog.Clone()}, interp.NewWorld(nil))[0]
	r.RxFromCtx = true
	var wantErr error
	var want [][]interp.Event
	for _, ctx := range streamCtxs(packets, len(packets)) {
		if _, err := r.RunIteration(ctx, nil); wantErr == nil {
			wantErr = err
		}
		want = append(want, ctx.Events)
	}
	got, gotErr := execStream([]*ir.Program{prog}, packets, len(packets), len(packets), len(packets))
	if errText(wantErr) != errText(gotErr) {
		t.Fatalf("%s: errors diverge:\ninterp: %v\nexec:   %v", prog.Name, wantErr, gotErr)
	}
	for i, evs := range want {
		if diff := interp.TraceEqual(evs, got[i]); diff != "" {
			t.Fatalf("%s, iteration %d: %s", prog.Name, i, diff)
		}
	}
}

// TestGuardChainStepLimit runs a chain of three guards, the last exiting
// where the first does, after a loop that spins the iteration to within a
// few steps of MaxSteps. The four lanes of one batch leave at the first,
// second and third guard or pass all three, and the prologue is padded so
// that the limit lands on every instruction from the loop's last branch to
// the end of each exit: the lanes that leave must reach the interpreter's
// instruction whether they leave in the lane-parallel run, with their steps
// settled at their guard, or lane by lane in the exact one.
func TestGuardChainStepLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 10⁶ interpreter steps per lane and offset")
	}
	guards := func(pad, laps int) *ir.Program {
		return build(fmt.Sprintf("guards/pad=%d", pad), func(bl *ir.Builder) {
			f := bl.Func
			loop, g2, g3, pass := f.NewBlock("loop"), f.NewBlock("g2"), f.NewBlock("g3"), f.NewBlock("pass")
			g1, x1, x2 := f.NewBlock("g1"), f.NewBlock("x1"), f.NewBlock("x2")
			i := f.NewReg()
			bl.Call("pkt_rx")
			x := bl.Call("pkt_byte", bl.Const(0))
			bits := []int{bl.Bin(ir.OpAnd, x, bl.Const(1)), bl.Bin(ir.OpAnd, x, bl.Const(2)), bl.Bin(ir.OpAnd, x, bl.Const(4))}
			for k := 0; k < pad; k++ {
				bl.Const(int64(k))
			}
			bl.ConstTo(i, 0)
			bl.Jmp(loop)
			bl.SetBlock(loop)
			bl.CopyTo(i, bl.Bin(ir.OpAdd, i, bl.Const(1)))
			bl.Br(bl.Bin(ir.OpLt, i, bl.Const(int64(laps))), loop, g1)
			for k, g := range []struct{ at, exit, next *ir.Block }{{g1, x1, g2}, {g2, x2, g3}, {g3, x1, pass}} {
				bl.SetBlock(g.at)
				bl.Switch(bits[k], []int64{0}, []*ir.Block{g.exit, g.next})
			}
			for k, b := range []*ir.Block{pass, x1, x2} {
				bl.SetBlock(b)
				bl.CallVoid("trace", bl.Const(int64(k)))
				for j := 0; j < 4*k; j++ { // an exit runs longer than the pass
					bl.Const(int64(j))
				}
				bl.CallVoid("trace", x)
				bl.Ret()
			}
		})
	}
	// The prologue without padding, the laps and the longest way on from
	// the loop (the second guard, then x2) come to MaxSteps or less than a
	// lap short of it; padding moves the limit from past every ret to the
	// loop's last branch.
	blocks := guards(0, 0).Func.Blocks
	prologue, lap, tail := len(blocks[0].Instrs), len(blocks[1].Instrs), 2+len(blocks[7].Instrs)
	laps := (interp.MaxSteps - prologue - tail) / lap
	packets := [][]byte{{0}, {1}, {3}, {7}}
	for pad := 0; pad <= tail+lap; pad++ {
		prog := guards(pad, laps)
		if low := exec.NewRunner(prog.Clone(), interp.NewWorld(nil)).Lowered(); low.Guards != 3 {
			t.Fatalf("%s: the three guards should be one op: %+v", prog.Name, low)
		}
		sameBatched(t, prog, packets)
	}
}

// TestCopyInLoopNotForwarded reads a copy whose source has one writer, in a
// loop that rewrites it every lap and, without the loop, once: either way
// the copy runs as an op, as it does on the interpreter.
func TestCopyInLoopNotForwarded(t *testing.T) {
	packets := [][]byte{{1, 2, 3, 4}, {9, 8, 7, 6}}
	for _, loop := range []bool{false, true} {
		prog := build(fmt.Sprintf("copy/loop=%v", loop), func(bl *ir.Builder) {
			f := bl.Func
			head, exit := f.NewBlock("head"), f.NewBlock("exit")
			i := f.NewReg()
			bl.Call("pkt_rx")
			bl.ConstTo(i, 0)
			bl.Jmp(head)
			bl.SetBlock(head)
			s := bl.Call("pkt_byte", i)
			d := bl.Copy(s)
			bl.CallVoid("trace", d)
			bl.CopyTo(i, bl.Bin(ir.OpAdd, i, bl.Const(1)))
			if loop {
				bl.Br(bl.Bin(ir.OpLt, i, bl.Const(3)), head, exit)
			} else {
				bl.Jmp(exit)
			}
			bl.SetBlock(exit)
			bl.CallVoid("trace", bl.Bin(ir.OpAdd, d, s))
			bl.Ret()
		})
		same(t, prog, packets)
		sameBatched(t, prog, packets)
	}
}

// TestGuardExitWithPhis lowers two one-case switches in a row: the chain
// runs on through both, also when an exit or default successor opened with
// a phi before ssa.Destruct — the copies that took its place, before the
// switch and at the top of the successor, leave the guard run whole.
func TestGuardExitWithPhis(t *testing.T) {
	var packets [][]byte
	for _, v := range []int64{0, 5, 6, 7, -1} {
		packets = append(packets, word(v))
	}
	for _, phi := range []string{"", "exit", "default"} {
		prog := build("guardphi/"+phi, func(bl *ir.Builder) {
			f := bl.Func
			a, b, x := f.NewBlock("a"), f.NewBlock("b"), f.NewBlock("x")
			bl.Call("pkt_rx")
			v := bl.Copy(word64(bl))
			one, two := bl.Const(1), bl.Const(2)
			bl.Switch(v, []int64{5}, []*ir.Block{x, a})
			bl.SetBlock(a)
			bl.Switch(v, []int64{6}, []*ir.Block{x, b})
			bl.SetBlock(b)
			bl.CallVoid("trace", v)
			bl.Ret()
			bl.SetBlock(x)
			switch phi {
			case "exit":
				p := f.NewReg()
				x.Instrs = append(x.Instrs, &ir.Instr{Op: ir.OpPhi, Dst: p, Args: []int{one, two}, PhiPreds: []int{0, a.ID}})
				bl.CallVoid("trace", p)
			case "default":
				p := f.NewReg()
				a.Instrs = append([]*ir.Instr{{Op: ir.OpPhi, Dst: p, Args: []int{two}, PhiPreds: []int{0}}}, a.Instrs...)
				bl.CallVoid("trace", p)
			}
			bl.CallVoid("trace", bl.Bin(ir.OpSub, v, one))
			bl.Ret()
		})
		low := same(t, prog, packets)
		sameBatched(t, prog, packets)
		if low.Guards != 2 {
			t.Fatalf("%s: want 2 guards: %+v", prog.Name, low)
		}
	}
}

// TestSSAInputRefused: exec runs phi-free IR. A runner for a program with
// a block that opens with a phi is refused when it is built, the block
// named; a phi further down a block is an instruction neither backend can
// evaluate, and fails the iteration that reaches it with the interpreter's
// error.
func TestSSAInputRefused(t *testing.T) {
	f := ir.NewFunc("ssa")
	bl := ir.NewBuilder(f)
	next := f.NewBlock("next")
	n := bl.Call("pkt_rx")
	bl.Jmp(next)
	p := f.NewReg()
	next.Instrs = append(next.Instrs, &ir.Instr{Op: ir.OpPhi, Dst: p, Args: []int{n}, PhiPreds: []int{f.Entry}})
	bl.SetBlock(next)
	bl.CallVoid("trace", p)
	bl.Ret()
	prog := &ir.Program{Name: "ssa", Func: f}
	want := fmt.Sprintf("exec: ssa: b%d opens with a phi", next.ID)
	for name, compile := range map[string]func(){
		"NewRunner":       func() { exec.NewRunner(prog, interp.NewWorld(nil)) },
		"NewRunnerShared": func() { exec.NewRunnerShared(prog, interp.NewWorld(nil), interp.NewStore(prog)) },
		"NewStageRunners": func() { exec.NewStageRunners([]*ir.Program{prog}, interp.NewWorld(nil)) },
	} {
		func() {
			defer func() {
				if r := recover(); !strings.HasPrefix(fmt.Sprint(r), want) {
					t.Errorf("%s: panic %v, want one that starts %q", name, r, want)
				}
			}()
			compile()
		}()
	}

	below := build("below", func(bl *ir.Builder) {
		n := bl.Call("pkt_rx")
		bl.CallVoid("trace", n)
		bl.Cur.Instrs = append(bl.Cur.Instrs, &ir.Instr{Op: ir.OpPhi, Dst: bl.Func.NewReg(), Args: []int{n}, PhiPreds: []int{0}})
		bl.Ret()
	})
	packets := [][]byte{{1, 2}}
	got, _ := runExec(below, packets, 1)
	if wantOut := runInterp(below, packets, 1); !strings.Contains(got.err, "cannot evaluate") || got.err != wantOut.err {
		t.Errorf("phi below the top of its block: exec error %q, interp error %q", got.err, wantOut.err)
	}
	sameBatched(t, below, packets)
}

// TestLoweringShape pins what the lowering makes of the stages the serve
// workloads run, so a change that quietly stops folding, fusing, shrinking
// the frame or running lanes together fails here rather than as a slower
// benchmark: per stage the static shape and whether it is serial, and per
// packet the closures dispatched (body ops plus terminators, each call
// counted once however many lanes it serves) over netbench traffic in
// batches of one full group. One lane at a time the three IP pipelines
// dispatch 74.9, 93.9 and 145.1 closures per packet; the bounds sit at or
// above what a group of 32 reaches today (3.0, 3.6, 5.3; the QM pipeline,
// half of it serial, 26.2). A downstream stage's control-object
// switches run as one guard op.
func TestLoweringShape(t *testing.T) {
	for _, tc := range []struct {
		pps    string
		degree int
		shape  []exec.Lowered
		maxDyn float64 // closures per packet, summed over the stages
	}{
		{pps: "IPv4", degree: 1, maxDyn: 5, shape: []exec.Lowered{
			{IRInstrs: 357, Ops: 123, Folded: 169, Fused: 78, FrameSlots: 57, Resets: 3},
		}},
		{pps: "IPv4", degree: 4, maxDyn: 4.5, shape: []exec.Lowered{
			{IRInstrs: 101, Ops: 33, Folded: 48, Fused: 20, FrameSlots: 11, Resets: 5},
			{IRInstrs: 109, Ops: 27, Folded: 57, Fused: 25, FrameSlots: 19, Resets: 3},
			{IRInstrs: 85, Ops: 43, Folded: 34, Fused: 9, FrameSlots: 18, Resets: 5},
			{IRInstrs: 88, Ops: 52, Folded: 29, Fused: 8, FrameSlots: 27, Resets: 2},
		}},
		{pps: "IP(v4)", degree: 4, maxDyn: 7.5, shape: []exec.Lowered{
			{IRInstrs: 196, Ops: 62, Folded: 96, Fused: 38, FrameSlots: 31, Resets: 12},
			{IRInstrs: 171, Ops: 73, Folded: 76, Fused: 23, FrameSlots: 49, Resets: 5},
			{IRInstrs: 177, Ops: 97, Folded: 69, Fused: 13, FrameSlots: 54, Resets: 10},
			{IRInstrs: 167, Ops: 109, Folded: 53, Fused: 9, Guards: 1, FrameSlots: 68, Resets: 9},
		}},
		// The partitioner has isolated the queue manager's carried state in
		// stages 2 and 4: those run their lanes one at a time, the other two
		// stay lane-parallel.
		{pps: "QM", degree: 4, maxDyn: 40, shape: []exec.Lowered{
			{IRInstrs: 16, Ops: 11, Folded: 4, Fused: 1, FrameSlots: 6, Resets: 2},
			{IRInstrs: 54, Ops: 28, Folded: 19, Fused: 7, Guards: 1, FrameSlots: 17, Resets: 3, Serial: true, Carried: "queue"},
			{IRInstrs: 17, Ops: 14, Folded: 3, FrameSlots: 8},
			{IRInstrs: 32, Ops: 20, Folded: 11, Fused: 3, FrameSlots: 17, Serial: true, Carried: "persistent array dropped"},
		}},
	} {
		pps, ok := netbench.ByName(tc.pps)
		if !ok {
			t.Fatalf("%s benchmark missing", tc.pps)
		}
		prog, err := pps.Compile()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Partition(prog, core.Options{Stages: tc.degree})
		if err != nil {
			t.Fatal(err)
		}
		runners := exec.NewStageRunners(res.Stages, netbench.NewWorld(nil))
		for k, r := range runners {
			r.RxFromCtx = true
			if got := r.Lowered(); got != tc.shape[k] {
				t.Errorf("%s D=%d stage %d:\n got %+v\nwant %+v", tc.pps, tc.degree, k+1, got, tc.shape[k])
			}
		}
		traffic := pps.Traffic(256)
		its := make([]*interp.IterCtx, exec.Lanes)
		for l := range its {
			its[l] = interp.NewIterCtx()
			its[l].DeferEvents = true
		}
		in, out := exec.NewBlocks(0, len(its))
		total := 0
		for ; len(traffic) >= len(its); traffic = traffic[len(its):] {
			for l := range its {
				its[l].Pending, its[l].HasPending = traffic[l], true
			}
			for k, r := range runners {
				before := r.Dispatched()
				if err := r.RunBatch(its, in, out); err != nil {
					t.Fatalf("%s D=%d stage %d: %v", tc.pps, tc.degree, k+1, err)
				}
				total += r.Dispatched() - before
				in, out = out, in
			}
			for l := range its {
				its[l].Reset()
			}
		}
		if dyn := float64(total) / 256; dyn > tc.maxDyn {
			t.Errorf("%s D=%d: %.2f closures per packet, want at most %.1f", tc.pps, tc.degree, dyn, tc.maxDyn)
		}
	}
}
