package core_test

import (
	"strings"
	"testing"

	. "repro/internal/core"
	"repro/internal/ir"
	"repro/internal/ppc"
)

func TestValidateStagesAcceptsRealPartition(t *testing.T) {
	prog, _ := ppc.Compile(paperExample)
	res, err := Partition(prog, Options{Stages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateStages(res.Stages); err != nil {
		t.Fatal(err)
	}
}

func TestValidateStagesRejections(t *testing.T) {
	mk := func(body func(f *ir.Func, bl *ir.Builder)) *ir.Program {
		f := ir.NewFunc("s")
		bl := ir.NewBuilder(f)
		body(f, bl)
		return &ir.Program{Name: "s", Func: f}
	}
	plain := mk(func(f *ir.Func, bl *ir.Builder) { bl.Ret() })

	if err := ValidateStages(nil); err == nil {
		t.Error("empty pipeline accepted")
	}

	// Stage 1 with a receive.
	badRecv := mk(func(f *ir.Func, bl *ir.Builder) {
		r := f.NewReg()
		f.Blocks[0].Instrs = append(f.Blocks[0].Instrs,
			&ir.Instr{Op: ir.OpRecvLS, Dst: ir.NoReg, Dsts: []int{r}, Tx: true})
		bl.SetBlock(f.Blocks[0])
		bl.Ret()
	})
	if err := ValidateStages([]*ir.Program{badRecv}); err == nil {
		t.Error("first-stage receive accepted")
	}

	// Width mismatch between consecutive stages.
	sender := mk(func(f *ir.Func, bl *ir.Builder) {
		a := bl.Const(1)
		b := bl.Const(2)
		f.Blocks[0].Instrs = append(f.Blocks[0].Instrs,
			&ir.Instr{Op: ir.OpSendLS, Dst: ir.NoReg, Args: []int{a, b}, Tx: true})
		bl.SetBlock(f.Blocks[0])
		bl.Ret()
	})
	receiver := mk(func(f *ir.Func, bl *ir.Builder) {
		r := f.NewReg()
		f.Blocks[0].Instrs = append(f.Blocks[0].Instrs,
			&ir.Instr{Op: ir.OpRecvLS, Dst: ir.NoReg, Dsts: []int{r}, Tx: true})
		bl.SetBlock(f.Blocks[0])
		bl.Ret()
	})
	if err := ValidateStages([]*ir.Program{sender, receiver}); err == nil {
		t.Error("width mismatch accepted")
	}

	// Persistent array WRITTEN in one stage and read in another (read-only
	// sharing is legal; a write forces colocation).
	arr := &ir.Array{ID: 0, Name: "state", Size: 2, Persistent: true}
	s1 := mk(func(f *ir.Func, bl *ir.Builder) {
		idx := bl.Const(0)
		v := bl.Const(9)
		bl.Store(arr, idx, v)
		bl.Ret()
	})
	s2 := mk(func(f *ir.Func, bl *ir.Builder) {
		idx := bl.Const(0)
		_ = bl.Load(arr, idx)
		bl.Ret()
	})
	// Wire a matching cut so only the persistent rule can fail.
	a := s1.Func.NewReg()
	s1.Func.Blocks[0].Instrs = append(s1.Func.Blocks[0].Instrs[:len(s1.Func.Blocks[0].Instrs)-1],
		&ir.Instr{Op: ir.OpCopy, Dst: a, Args: []int{0}},
		&ir.Instr{Op: ir.OpSendLS, Dst: ir.NoReg, Args: []int{a}, Tx: true},
		&ir.Instr{Op: ir.OpRet, Dst: ir.NoReg})
	r := s2.Func.NewReg()
	s2.Func.Blocks[0].Instrs = append([]*ir.Instr{
		{Op: ir.OpRecvLS, Dst: ir.NoReg, Dsts: []int{r}, Tx: true}}, s2.Func.Blocks[0].Instrs...)
	if err := ValidateStages([]*ir.Program{s1, s2}); err == nil {
		t.Error("shared persistent array accepted")
	}

	// A healthy single stage passes.
	if err := ValidateStages([]*ir.Program{plain}); err != nil {
		t.Errorf("trivial pipeline rejected: %v", err)
	}
}

// TestValidateStagesConfinesQueues: a queue written in one stage and used in
// another splits loop-carried state across a cut, as a shared persistent
// array would, and ValidateStages rejects it naming the channel.
func TestValidateStagesConfinesQueues(t *testing.T) {
	put := ir.NewFunc("put")
	bl := ir.NewBuilder(put)
	n := bl.Call("pkt_rx")
	bl.CallVoid("q_put", bl.Const(0), n)
	bl.Cur.Instrs = append(bl.Cur.Instrs, &ir.Instr{Op: ir.OpSendLS, Dst: ir.NoReg, Args: []int{n}, Tx: true})
	bl.Ret()

	get := ir.NewFunc("get")
	r := get.NewReg()
	get.Blocks[0].Instrs = append(get.Blocks[0].Instrs, &ir.Instr{Op: ir.OpRecvLS, Dst: ir.NoReg, Dsts: []int{r}, Tx: true})
	bl = ir.NewBuilder(get)
	bl.CallVoid("trace", bl.Call("q_get", bl.Const(0)))
	bl.Ret()

	err := ValidateStages([]*ir.Program{{Name: "put", Func: put}, {Name: "get", Func: get}})
	if err == nil || !strings.Contains(err.Error(), `"queue"`) {
		t.Fatalf("q_put in stage 1 and q_get in stage 2: err = %v, want a rejection naming the queue channel", err)
	}
}
