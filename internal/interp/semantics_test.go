package interp_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/ppc"
)

const (
	minI = math.MinInt64
	maxI = math.MaxInt64
)

// valueRow is one literal fact about what the IR computes: op (a unary or
// binary op, or ir.OpCall of call) over args yields want, and a packet
// write leaves the subject packet as pkt (nil: unchanged).
type valueRow struct {
	op   ir.Op
	call string
	args []int64
	want int64
	pkt  []byte
}

// subject is the packet every row's packet intrinsics read and write.
var subject = []byte{0x11, 0x22, 0x33, 0x44, 0x55}

var valueRows = []valueRow{
	// Total division: ÷0 and %0 are 0, MinInt64 / -1 wraps, truncation
	// toward zero.
	{op: ir.OpDiv, args: []int64{7, 0}, want: 0},
	{op: ir.OpMod, args: []int64{7, 0}, want: 0},
	{op: ir.OpDiv, args: []int64{minI, 0}, want: 0},
	{op: ir.OpMod, args: []int64{minI, 0}, want: 0},
	{op: ir.OpDiv, args: []int64{minI, -1}, want: minI},
	{op: ir.OpMod, args: []int64{minI, -1}, want: 0},
	{op: ir.OpDiv, args: []int64{-7, 2}, want: -3},
	{op: ir.OpMod, args: []int64{-7, 2}, want: -1},
	{op: ir.OpDiv, args: []int64{7, -2}, want: -3},
	{op: ir.OpMod, args: []int64{7, -2}, want: 1},

	// Shift counts are taken mod 64; >> is arithmetic.
	{op: ir.OpShl, args: []int64{1, 63}, want: minI},
	{op: ir.OpShl, args: []int64{1, 64}, want: 1},
	{op: ir.OpShl, args: []int64{1, 65}, want: 2},
	{op: ir.OpShl, args: []int64{1, -1}, want: minI},
	{op: ir.OpShl, args: []int64{1, 200}, want: 256},
	{op: ir.OpShr, args: []int64{minI, 63}, want: -1},
	{op: ir.OpShr, args: []int64{minI, 64}, want: minI},
	{op: ir.OpShr, args: []int64{minI, 65}, want: minI / 2},
	{op: ir.OpShr, args: []int64{minI, -1}, want: -1},
	{op: ir.OpShr, args: []int64{minI, 200}, want: -1 << 55},
	{op: ir.OpShr, args: []int64{maxI, 63}, want: 0},

	// Two's-complement wraparound.
	{op: ir.OpAdd, args: []int64{maxI, 1}, want: minI},
	{op: ir.OpSub, args: []int64{minI, 1}, want: maxI},
	{op: ir.OpMul, args: []int64{minI, -1}, want: minI},
	{op: ir.OpMul, args: []int64{maxI, 2}, want: -2},
	{op: ir.OpAnd, args: []int64{-1, 0xF0}, want: 0xF0},
	{op: ir.OpOr, args: []int64{minI, 1}, want: minI + 1},
	{op: ir.OpXor, args: []int64{-1, maxI}, want: minI},

	// Comparisons yield 1 or 0, at the extremes.
	{op: ir.OpEq, args: []int64{minI, maxI}, want: 0},
	{op: ir.OpNe, args: []int64{minI, maxI}, want: 1},
	{op: ir.OpLt, args: []int64{minI, maxI}, want: 1},
	{op: ir.OpLe, args: []int64{minI, maxI}, want: 1},
	{op: ir.OpGt, args: []int64{minI, maxI}, want: 0},
	{op: ir.OpGe, args: []int64{minI, maxI}, want: 0},
	{op: ir.OpEq, args: []int64{maxI, minI}, want: 0},
	{op: ir.OpNe, args: []int64{maxI, minI}, want: 1},
	{op: ir.OpLt, args: []int64{maxI, minI}, want: 0},
	{op: ir.OpLe, args: []int64{maxI, minI}, want: 0},
	{op: ir.OpGt, args: []int64{maxI, minI}, want: 1},
	{op: ir.OpGe, args: []int64{maxI, minI}, want: 1},
	{op: ir.OpEq, args: []int64{minI, minI}, want: 1},
	{op: ir.OpNe, args: []int64{minI, minI}, want: 0},
	{op: ir.OpLt, args: []int64{minI, minI}, want: 0},
	{op: ir.OpLe, args: []int64{maxI, maxI}, want: 1},
	{op: ir.OpGt, args: []int64{maxI, maxI}, want: 0},
	{op: ir.OpGe, args: []int64{minI, minI}, want: 1},

	// Unary ops.
	{op: ir.OpNot, args: []int64{0}, want: 1},
	{op: ir.OpNot, args: []int64{1}, want: 0},
	{op: ir.OpNot, args: []int64{-1}, want: 0},
	{op: ir.OpNeg, args: []int64{minI}, want: minI},
	{op: ir.OpNeg, args: []int64{maxI}, want: minI + 1},
	{op: ir.OpBNot, args: []int64{0}, want: -1},
	{op: ir.OpBNot, args: []int64{minI}, want: maxI},

	// The value intrinsics.
	{op: ir.OpCall, call: "csum_fold", args: []int64{0}, want: 0},
	{op: ir.OpCall, call: "csum_fold", args: []int64{0x1FFFF}, want: 1},
	{op: ir.OpCall, call: "csum_fold", args: []int64{-1}, want: 0xFFFF},
	{op: ir.OpCall, call: "csum_fold", args: []int64{minI}, want: 0},
	{op: ir.OpCall, call: "hash_crc", args: []int64{0}, want: 0},
	{op: ir.OpCall, call: "hash_crc", args: []int64{0x1FFFF}, want: 0x1c6b665a},
	{op: ir.OpCall, call: "hash_crc", args: []int64{-1}, want: 0x4aa9ccc},
	{op: ir.OpCall, call: "hash_crc", args: []int64{minI}, want: 0x7daab199},

	// Packet reads: an offset outside the packet reads 0, byte by byte.
	{op: ir.OpCall, call: "pkt_byte", args: []int64{minI}, want: 0},
	{op: ir.OpCall, call: "pkt_byte", args: []int64{-1}, want: 0},
	{op: ir.OpCall, call: "pkt_byte", args: []int64{0}, want: 0x11},
	{op: ir.OpCall, call: "pkt_byte", args: []int64{2}, want: 0x33},
	{op: ir.OpCall, call: "pkt_byte", args: []int64{3}, want: 0x44},
	{op: ir.OpCall, call: "pkt_byte", args: []int64{4}, want: 0x55},
	{op: ir.OpCall, call: "pkt_byte", args: []int64{5}, want: 0},
	{op: ir.OpCall, call: "pkt_byte", args: []int64{maxI}, want: 0},
	{op: ir.OpCall, call: "pkt_word", args: []int64{minI}, want: 0},
	{op: ir.OpCall, call: "pkt_word", args: []int64{-1}, want: 0x00112233},
	{op: ir.OpCall, call: "pkt_word", args: []int64{0}, want: 0x11223344},
	{op: ir.OpCall, call: "pkt_word", args: []int64{2}, want: 0x33445500},
	{op: ir.OpCall, call: "pkt_word", args: []int64{3}, want: 0x44550000},
	{op: ir.OpCall, call: "pkt_word", args: []int64{4}, want: 0x55000000},
	{op: ir.OpCall, call: "pkt_word", args: []int64{5}, want: 0},
	{op: ir.OpCall, call: "pkt_word", args: []int64{maxI}, want: 0},

	// Packet writes: a byte outside the packet is not written; the value
	// is truncated to the bytes written.
	{op: ir.OpCall, call: "pkt_setbyte", args: []int64{minI, 0x1AB}},
	{op: ir.OpCall, call: "pkt_setbyte", args: []int64{-1, 0x1AB}},
	{op: ir.OpCall, call: "pkt_setbyte", args: []int64{0, 0x1AB}, pkt: []byte{0xAB, 0x22, 0x33, 0x44, 0x55}},
	{op: ir.OpCall, call: "pkt_setbyte", args: []int64{2, 0x1AB}, pkt: []byte{0x11, 0x22, 0xAB, 0x44, 0x55}},
	{op: ir.OpCall, call: "pkt_setbyte", args: []int64{3, 0x1AB}, pkt: []byte{0x11, 0x22, 0x33, 0xAB, 0x55}},
	{op: ir.OpCall, call: "pkt_setbyte", args: []int64{4, 0x1AB}, pkt: []byte{0x11, 0x22, 0x33, 0x44, 0xAB}},
	{op: ir.OpCall, call: "pkt_setbyte", args: []int64{5, 0x1AB}},
	{op: ir.OpCall, call: "pkt_setbyte", args: []int64{maxI, 0x1AB}},
	{op: ir.OpCall, call: "pkt_setword", args: []int64{minI, 0x990A0B0C0D}},
	{op: ir.OpCall, call: "pkt_setword", args: []int64{-1, 0x990A0B0C0D}, pkt: []byte{0x0B, 0x0C, 0x0D, 0x44, 0x55}},
	{op: ir.OpCall, call: "pkt_setword", args: []int64{0, 0x990A0B0C0D}, pkt: []byte{0x0A, 0x0B, 0x0C, 0x0D, 0x55}},
	{op: ir.OpCall, call: "pkt_setword", args: []int64{2, 0x990A0B0C0D}, pkt: []byte{0x11, 0x22, 0x0A, 0x0B, 0x0C}},
	{op: ir.OpCall, call: "pkt_setword", args: []int64{3, 0x990A0B0C0D}, pkt: []byte{0x11, 0x22, 0x33, 0x0A, 0x0B}},
	{op: ir.OpCall, call: "pkt_setword", args: []int64{4, 0x990A0B0C0D}, pkt: []byte{0x11, 0x22, 0x33, 0x44, 0x0A}},
	{op: ir.OpCall, call: "pkt_setword", args: []int64{5, 0x990A0B0C0D}},
	{op: ir.OpCall, call: "pkt_setword", args: []int64{maxI, 0x990A0B0C0D}},
}

// wrapRow: index lands in slot of an array of some size — the packet
// descriptor's meta words, or a local array.
type wrapRow struct {
	index int64
	slot  int64
}

const localSize = 6

var (
	metaRows  = []wrapRow{{-1, 15}, {16, 0}, {17, 1}, {minI, 0}, {maxI, 15}}
	localRows = []wrapRow{{-1, 5}, {localSize, 0}, {minI, 4}, {maxI, 1}, {-7, 5}}
)

func (r valueRow) String() string {
	if r.op == ir.OpCall {
		return fmt.Sprintf("%s%v", r.call, r.args)
	}
	return fmt.Sprintf("%s%v", r.op, r.args)
}

// operand emits the packet's i'th big-endian 64-bit word as one register:
// a value the lowering cannot know.
func operand(bl *ir.Builder, i int) int {
	hi := bl.Call("pkt_word", bl.Const(int64(8*i)))
	lo := bl.Call("pkt_word", bl.Const(int64(8*i+4)))
	return bl.Bin(ir.OpOr, bl.Bin(ir.OpShl, hi, bl.Const(32)), lo)
}

// operandPacket carries vals as big-endian 64-bit words, for operand.
func operandPacket(vals ...int64) []byte {
	var p []byte
	for _, v := range vals {
		p = binary.BigEndian.AppendUint64(p, uint64(v))
	}
	return p
}

// program builds one iteration that receives the operand packet, takes the
// operands from it (fromPkt) or as constants, receives the subject packet
// and hands the operands to body, then sends the subject.
func program(name string, vals []int64, fromPkt bool, arrs []*ir.Array, body func(bl *ir.Builder, args []int)) *ir.Program {
	f := ir.NewFunc(name)
	bl := ir.NewBuilder(f)
	bl.Call("pkt_rx")
	args := make([]int, len(vals))
	for i, v := range vals {
		if fromPkt {
			args[i] = operand(bl, i)
		} else {
			args[i] = bl.Const(v)
		}
	}
	bl.Call("pkt_rx")
	body(bl, args)
	bl.CallVoid("pkt_send", bl.Const(0))
	bl.Ret()
	return &ir.Program{Name: name, Arrays: arrs, Func: f}
}

// backends runs prog for one iteration over the operand packet and the
// subject on the interpreter and on exec; it returns each trace by name.
func backends(t *testing.T, prog *ir.Program, vals []int64) map[string][]interp.Event {
	t.Helper()
	packets := func() [][]byte { return [][]byte{operandPacket(vals...), bytes.Clone(subject)} }
	out := map[string][]interp.Event{}
	w := interp.NewWorld(packets())
	if _, err := interp.RunSequential(prog.Clone(), w, 1); err != nil {
		t.Fatalf("%s: interp: %v", prog.Name, err)
	}
	out["interp"] = w.Trace
	w = interp.NewWorld(packets())
	c := interp.Chain[*exec.Runner]{Stages: []*exec.Runner{exec.NewRunner(prog.Clone(), w)}}
	if err := c.Run(1); err != nil {
		t.Fatalf("%s: exec: %v", prog.Name, err)
	}
	out["exec"] = w.Trace
	return out
}

// check holds a trace to the traced values want followed by the send of
// pkt.
func check(t *testing.T, name string, tr []interp.Event, pkt []byte, want ...int64) {
	t.Helper()
	if len(tr) != len(want)+1 {
		t.Errorf("%s: %d events, want %d: %v", name, len(tr), len(want)+1, tr)
		return
	}
	for i, w := range want {
		if e := tr[i]; e.Kind != interp.EvTrace || e.Val != w {
			t.Errorf("%s: event %d = %v, want trace(%#x)", name, i, e, w)
		}
	}
	if e := tr[len(want)]; e.Kind != interp.EvSend || !bytes.Equal(e.Pkt, pkt) {
		t.Errorf("%s: last event = %v, want send of % x", name, e, pkt)
	}
}

// ppcOps spells the IR's unary and binary ops in PPC.
var ppcOps = map[ir.Op]string{
	ir.OpAdd: "+", ir.OpSub: "-", ir.OpMul: "*", ir.OpDiv: "/", ir.OpMod: "%",
	ir.OpAnd: "&", ir.OpOr: "|", ir.OpXor: "^", ir.OpShl: "<<", ir.OpShr: ">>",
	ir.OpEq: "==", ir.OpNe: "!=", ir.OpLt: "<", ir.OpLe: "<=", ir.OpGt: ">", ir.OpGe: ">=",
	ir.OpNeg: "-", ir.OpNot: "!", ir.OpBNot: "~",
}

// ppcLit spells v as a PPC expression: MinInt64 has no literal.
func ppcLit(v int64) string {
	if v == minI {
		return "(-9223372036854775807 - 1)"
	}
	return fmt.Sprintf("(%d)", v)
}

// direct computes r with internal/ir's functions, on a copy of the
// subject.
func direct(r valueRow) (int64, []byte) {
	pkt, a := bytes.Clone(subject), r.args
	switch r.call {
	case "":
		if r.op.IsUnary() {
			return ir.Eval(r.op, a[0], 0), pkt
		}
		return ir.Eval(r.op, a[0], a[1]), pkt
	case "csum_fold":
		return ir.CsumFold(a[0]), pkt
	case "hash_crc":
		return ir.HashCRC(a[0]), pkt
	case "pkt_byte":
		return ir.PktByte(pkt, a[0]), pkt
	case "pkt_word":
		return ir.PktWord(pkt, a[0]), pkt
	case "pkt_setbyte":
		ir.SetPktByte(pkt, a[0], a[1])
	case "pkt_setword":
		ir.SetPktWord(pkt, a[0], a[1])
	}
	return 0, pkt
}

// TestValueSemanticsTable pins what the IR computes with literal
// expectations, not with one backend's answer checked against another's:
// every value op at its edges, the value intrinsics, the packet reads and
// writes at offsets outside, at the edge of and inside a 5-byte packet,
// and the index wrapping of meta words and local arrays. Each row runs
// directly against internal/ir's functions, and on the interpreter and on
// exec, with its operands as constants (folded, or made immediates, when
// exec lowers the program) and read at run time from a packet; a value op
// also runs as a PPC const declaration, which the front end folds.
func TestValueSemanticsTable(t *testing.T) {
	for _, r := range valueRows {
		want := r.pkt
		if want == nil {
			want = subject
		}
		if got, pkt := direct(r); got != r.want || !bytes.Equal(pkt, want) {
			t.Errorf("%s/ir: %#x and % x, want %#x and % x", r, got, pkt, r.want, want)
		}
		for _, fromPkt := range []bool{false, true} {
			prog := program(r.String(), r.args, fromPkt, nil, func(bl *ir.Builder, args []int) {
				var v int
				switch {
				case r.op == ir.OpCall:
					v = bl.Call(r.call, args...)
				case r.op.IsUnary():
					v = bl.Un(r.op, args[0])
				default:
					v = bl.Bin(r.op, args[0], args[1])
				}
				bl.CallVoid("trace", v)
			})
			for be, tr := range backends(t, prog, r.args) {
				check(t, fmt.Sprintf("%s/%s/fromPkt=%v", r, be, fromPkt), tr, want, r.want)
			}
		}
		if r.op == ir.OpCall {
			continue
		}
		expr := ppcOps[r.op] + ppcLit(r.args[0])
		if r.op.IsBinary() {
			expr = ppcLit(r.args[0]) + " " + ppcOps[r.op] + " " + ppcLit(r.args[1])
		}
		prog, err := ppc.Compile("const X = " + expr + "; pps P { loop { trace(X); } }")
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		tr, err := interp.RunSequential(prog, interp.NewWorld(nil), 1)
		if err != nil || len(tr) != 1 || tr[0].Val != r.want {
			t.Errorf("ppc const %s: trace %v, err %v, want trace(%#x)", expr, tr, err, r.want)
		}
	}

	// A wrapped index lands in its row's slot: a write through the index
	// reads back through the slot, and the other way round.
	local := &ir.Array{ID: 0, Name: "loc", Size: localSize}
	places := []struct {
		name string
		rows []wrapRow
		size int
		arrs []*ir.Array
		get  func(bl *ir.Builder, i int) int
		set  func(bl *ir.Builder, i, v int)
	}{
		{"meta", metaRows, len(interp.IterCtx{}.Meta), nil,
			func(bl *ir.Builder, i int) int { return bl.Call("meta_get", i) },
			func(bl *ir.Builder, i, v int) { bl.CallVoid("meta_set", i, v) }},
		{"local", localRows, localSize, []*ir.Array{local},
			func(bl *ir.Builder, i int) int { return bl.Load(local, i) },
			func(bl *ir.Builder, i, v int) { bl.Store(local, i, v) }},
	}
	for _, p := range places {
		for _, r := range p.rows {
			if got := ir.Wrap(r.index, p.size); int64(got) != r.slot {
				t.Errorf("%s[%d]/ir: slot %d, want %d", p.name, r.index, got, r.slot)
			}
			for _, fromPkt := range []bool{false, true} {
				vals := []int64{r.index, r.slot}
				name := fmt.Sprintf("%s[%d]", p.name, r.index)
				prog := program(name, vals, fromPkt, p.arrs, func(bl *ir.Builder, args []int) {
					p.set(bl, args[0], bl.Const(77))
					bl.CallVoid("trace", p.get(bl, args[1]))
					p.set(bl, args[1], bl.Const(55))
					bl.CallVoid("trace", p.get(bl, args[0]))
				})
				for be, tr := range backends(t, prog, vals) {
					check(t, fmt.Sprintf("%s/%s/fromPkt=%v", name, be, fromPkt), tr, subject, 77, 55)
				}
			}
		}
	}
}
