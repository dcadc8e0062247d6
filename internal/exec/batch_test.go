package exec_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
)

// The programs below make the lanes of one batch disagree — about which way
// a branch goes, how often a loop turns, whether the iteration ends in an
// error at all — or share state that orders them. Each batch is held to the
// interpreter running the same iterations one after the other: per
// iteration the events (the prefix before an error included) and the live
// set sent, per batch the error of its first failing iteration.

// iterOutcome is everything observable about one iteration.
type iterOutcome struct {
	events []interp.Event
	sent   []int64
	err    string
}

// batchCase is one program and the iterations to run it over: packets[i]
// is iteration i's pre-pulled packet, recv[i] its incoming live set.
type batchCase struct {
	prog    *ir.Program
	packets [][]byte
	recv    [][]int64
	serial  bool // what the lowering must decide
}

func newCtx(pkt []byte) *interp.IterCtx {
	ctx := interp.NewIterCtx()
	ctx.DeferEvents = true
	ctx.Pending, ctx.HasPending = pkt, true
	return ctx
}

func (tc *batchCase) recvOf(i int) []int64 {
	if tc.recv == nil {
		return nil
	}
	return tc.recv[i]
}

// oracle runs the iterations one at a time on the interpreter, every one of
// them whatever became of the ones before.
func (tc *batchCase) oracle() []iterOutcome {
	r := interp.NewRunner(tc.prog.Clone(), interp.NewWorld(nil))
	r.RxFromCtx = true
	out := make([]iterOutcome, len(tc.packets))
	for i, p := range tc.packets {
		ctx := newCtx(p)
		sent, err := r.RunIteration(ctx, tc.recvOf(i))
		out[i] = iterOutcome{ctx.Events, sent, errText(err)}
	}
	return out
}

// check runs the iterations through RunBatch in batches of width, their
// live sets in blocks, and holds every batch to the oracle.
func (tc *batchCase) check(t *testing.T, width int) {
	t.Helper()
	want := tc.oracle()
	r := exec.NewRunner(tc.prog.Clone(), interp.NewWorld(nil))
	r.RxFromCtx = true
	if got := r.Lowered().Serial; got != tc.serial {
		t.Fatalf("%s: lowered serial=%v (%q), want %v", tc.prog.Name, got, r.Lowered().Carried, tc.serial)
	}
	for lo := 0; lo < len(tc.packets); lo += width {
		hi := min(lo+width, len(tc.packets))
		its := make([]*interp.IterCtx, hi-lo)
		in, out := exec.NewBlocks(0, hi-lo)
		for l := range its {
			its[l] = newCtx(tc.packets[lo+l])
			in.SetRow(l, tc.recvOf(lo+l))
		}
		err := r.RunBatch(its, in, out)
		first := ""
		for l, it := range its {
			w := want[lo+l]
			if first == "" {
				first = w.err
			}
			if diff := interp.TraceEqual(w.events, it.Events); diff != "" {
				t.Fatalf("%s width %d iteration %d: %s", tc.prog.Name, width, lo+l, diff)
			}
			if sent, _ := out.Row(l, nil); w.err == "" && fmt.Sprint(w.sent) != fmt.Sprint(sent) {
				t.Fatalf("%s width %d iteration %d: sent %v, want %v", tc.prog.Name, width, lo+l, sent, w.sent)
			}
		}
		if errText(err) != first {
			t.Fatalf("%s width %d batch at %d: error %q, want that of its first failing iteration %q",
				tc.prog.Name, width, lo, errText(err), first)
		}
	}
}

// bytePackets makes one single-byte packet per value.
func bytePackets(vals ...byte) [][]byte {
	pkts := make([][]byte, len(vals))
	for i, v := range vals {
		pkts[i] = []byte{v, byte(i)}
	}
	return pkts
}

// mixed is 32 lanes' worth of first bytes in which neighbours differ, small
// values repeat and four large ones stand out.
func mixed() [][]byte {
	vals := make([]byte, 32)
	for i := range vals {
		vals[i] = byte((i*7 + i/5) % 11)
	}
	vals[3], vals[13], vals[17], vals[29] = 250, 255, 249, 252
	return bytePackets(vals...)
}

// phi appends z = phi(preds...) to block b.
func phi(f *ir.Func, b *ir.Block, args []int, preds ...*ir.Block) int {
	in := &ir.Instr{Op: ir.OpPhi, Dst: f.NewReg(), Args: args}
	for _, p := range preds {
		in.PhiPreds = append(in.PhiPreds, p.ID)
	}
	b.Instrs = append(b.Instrs, in)
	return in.Dst
}

// diamond is rx; br cond(v) a b; both arms compute a value and trace; the
// join traces the phi of the two.
func diamond(name string, cond func(bl *ir.Builder, v int) int) *ir.Program {
	return build(name, func(bl *ir.Builder) {
		f := bl.Func
		a, b, join := f.NewBlock("a"), f.NewBlock("b"), f.NewBlock("join")
		bl.Call("pkt_rx")
		v := bl.Call("pkt_byte", bl.Const(0))
		bl.Br(cond(bl, v), a, b)
		bl.SetBlock(a)
		x := bl.Bin(ir.OpAdd, v, bl.Const(1000))
		bl.CallVoid("trace", x)
		bl.Jmp(join)
		bl.SetBlock(b)
		y := bl.Bin(ir.OpMul, v, bl.Const(3))
		bl.Jmp(join)
		bl.SetBlock(join)
		bl.CallVoid("trace", phi(f, join, []int{x, y}, a, b))
		bl.Ret()
	})
}

func divergencePrograms() []batchCase {
	var cases []batchCase

	// Every kind of two-way terminator, lanes split and re-joined by a phi.
	cases = append(cases,
		batchCase{prog: diamond("split/br", func(bl *ir.Builder, v int) int {
			return bl.Bin(ir.OpAnd, v, bl.Const(1))
		}), packets: mixed()},
		batchCase{prog: diamond("split/cmpbr-imm", func(bl *ir.Builder, v int) int {
			return bl.Bin(ir.OpGe, v, bl.Const(5))
		}), packets: mixed()},
		batchCase{prog: diamond("split/cmpbr-rr", func(bl *ir.Builder, v int) int {
			return bl.Bin(ir.OpLt, v, bl.Call("pkt_byte", bl.Const(1)))
		}), packets: mixed()},
	)

	// A switch, dense and sparse, the default edge included, with a phi at
	// the join fed from every arm.
	for name, vals := range map[string][]int64{"dense": {1, 2, 3, 4}, "sparse": {2, 200, 9}} {
		cases = append(cases, batchCase{packets: mixed(), prog: build("split/switch-"+name, func(bl *ir.Builder) {
			f := bl.Func
			arms := make([]*ir.Block, len(vals)+1)
			for i := range arms {
				arms[i] = f.NewBlock("arm")
			}
			join := f.NewBlock("join")
			bl.Call("pkt_rx")
			v := bl.Call("pkt_byte", bl.Const(0))
			bl.Switch(v, vals, arms)
			outs := make([]int, len(arms))
			for i, arm := range arms {
				bl.SetBlock(arm)
				outs[i] = bl.Bin(ir.OpAdd, v, bl.Const(int64(100*(i+1))))
				bl.Jmp(join)
			}
			bl.SetBlock(join)
			bl.CallVoid("trace", phi(f, join, outs, arms...))
			bl.Ret()
		})})
	}

	// An inner loop that turns a different number of times in every lane.
	// Its counter and accumulator ride phis on the back edge, and a pair of
	// registers swaps through them every lap: the temporaries ssa.Destruct
	// gives the phis keep the swap parallel.
	cases = append(cases, batchCase{packets: mixed(), prog: build("loop/trips", func(bl *ir.Builder) {
		f := bl.Func
		entry := bl.Cur
		head, body, exit := f.NewBlock("head"), f.NewBlock("body"), f.NewBlock("exit")
		bl.Call("pkt_rx")
		v := bl.Call("pkt_byte", bl.Const(0))
		n := bl.Bin(ir.OpAnd, v, bl.Const(15))
		zero, one := bl.Const(0), bl.Const(1)
		bl.Jmp(head)
		i2, acc2, p, q := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
		i := phi(f, head, []int{zero, i2}, entry, body)
		acc := phi(f, head, []int{zero, acc2}, entry, body)
		head.Instrs = append(head.Instrs,
			&ir.Instr{Op: ir.OpPhi, Dst: p, Args: []int{v, q}, PhiPreds: []int{entry.ID, body.ID}},
			&ir.Instr{Op: ir.OpPhi, Dst: q, Args: []int{one, p}, PhiPreds: []int{entry.ID, body.ID}})
		bl.SetBlock(head)
		bl.Br(bl.Bin(ir.OpLt, i, n), body, exit)
		bl.SetBlock(body)
		bl.CallVoid("trace", i)
		body.Instrs = append(body.Instrs,
			&ir.Instr{Op: ir.OpAdd, Dst: acc2, Args: []int{acc, i}},
			&ir.Instr{Op: ir.OpAdd, Dst: i2, Args: []int{i, one}})
		bl.Jmp(head)
		bl.SetBlock(exit)
		bl.CallVoid("trace", acc)
		bl.CallVoid("trace", bl.Bin(ir.OpSub, p, q))
		bl.Ret()
	})})

	// Four lanes (first byte 248 and up) spin until MaxSteps; the others
	// return with their full traces. A spinning lane first runs a prologue
	// loop of its own length, so the limit lands on a different instruction
	// of the lap in each, and it traces every lap of the last stretch, so
	// the events before the error count its steps to within one lap.
	cases = append(cases, batchCase{packets: mixed(), prog: build("limit/some-lanes", func(bl *ir.Builder) {
		f := bl.Func
		entry := bl.Cur
		head, pro, gate := f.NewBlock("head"), f.NewBlock("pro"), f.NewBlock("gate")
		spin, note, done := f.NewBlock("spin"), f.NewBlock("note"), f.NewBlock("done")
		bl.Call("pkt_rx")
		v := bl.Call("pkt_byte", bl.Const(0))
		bl.CallVoid("trace", v)
		n := bl.Bin(ir.OpAnd, v, bl.Const(7))
		zero, one := bl.Const(0), bl.Const(1)
		stretch := bl.Const(interp.MaxSteps/3 - 100) // a quiet lap is three steps
		bl.Jmp(head)
		i2, k2 := f.NewReg(), f.NewReg()
		i := phi(f, head, []int{zero, i2}, entry, pro)
		bl.SetBlock(head)
		bl.Br(bl.Bin(ir.OpLt, i, n), pro, gate)
		bl.SetBlock(pro)
		pro.Instrs = append(pro.Instrs, &ir.Instr{Op: ir.OpAdd, Dst: i2, Args: []int{i, one}})
		bl.Jmp(head)
		bl.SetBlock(gate)
		bl.Br(bl.Bin(ir.OpGe, v, bl.Const(248)), spin, done)
		k := phi(f, spin, []int{zero, k2, k2}, gate, spin, note)
		bl.SetBlock(spin)
		spin.Instrs = append(spin.Instrs, &ir.Instr{Op: ir.OpAdd, Dst: k2, Args: []int{k, one}})
		bl.Br(bl.Bin(ir.OpGe, k2, stretch), note, spin)
		bl.SetBlock(note)
		bl.CallVoid("trace", k2)
		bl.Jmp(spin)
		bl.SetBlock(done)
		bl.CallVoid("trace", bl.Bin(ir.OpAdd, v, one))
		bl.Ret()
	})})

	// Two lanes fail, each its own way, with healthy lanes below, between
	// and above: the batch reports the lower one's error, and every other
	// lane still completes.
	cases = append(cases, batchCase{
		packets: bytePackets(0, 7, 3, 0, 2, 1, 3, 2),
		prog: build("errors/lowest-wins", func(bl *ir.Builder) {
			f := bl.Func
			a, b, d, c, join := f.NewBlock("a"), f.NewBlock("b"), f.NewBlock("d"), f.NewBlock("c"), f.NewBlock("join")
			bl.Call("pkt_rx")
			v := bl.Call("pkt_byte", bl.Const(0))
			bl.CallVoid("trace", v)
			bl.Switch(v, []int64{1, 2, 3}, []*ir.Block{a, b, d, c})
			bl.SetBlock(a)
			x := bl.Bin(ir.OpAdd, v, bl.Const(10))
			bl.Jmp(join)
			bl.SetBlock(b) // a phi below the top of its block cannot be evaluated
			bl.CallVoid("trace", bl.Const(8))
			b.Instrs = append(b.Instrs, &ir.Instr{Op: ir.OpPhi, Dst: f.NewReg(), Args: []int{v}, PhiPreds: []int{0}})
			bl.Jmp(join)
			bl.SetBlock(d) // falls off its end
			bl.CallVoid("trace", bl.Const(9))
			bl.SetBlock(c)
			y := bl.Bin(ir.OpAdd, v, bl.Const(20))
			bl.Jmp(join)
			bl.SetBlock(join)
			bl.CallVoid("trace", phi(f, join, []int{x, y}, a, c))
			bl.Ret()
		}),
	})

	// A stage that receives one slot and sends two. One lane's upstream sent
	// nothing; then every lane is handed the wrong width (a block has one
	// width for all its rows).
	recv, wide := make([][]int64, 32), make([][]int64, 32)
	for i := range recv {
		recv[i], wide[i] = []int64{int64(i) * 3}, []int64{1, int64(i)}
	}
	recv[11] = nil
	recvls := build("errors/recvls", func(bl *ir.Builder) {
		r0 := bl.Func.NewReg()
		bl.Cur.Instrs = append(bl.Cur.Instrs, &ir.Instr{Op: ir.OpRecvLS, Dst: ir.NoReg, Dsts: []int{r0}})
		bl.CallVoid("trace", r0)
		r1 := bl.Bin(ir.OpAdd, r0, bl.Const(1))
		bl.Cur.Instrs = append(bl.Cur.Instrs, &ir.Instr{Op: ir.OpSendLS, Dst: ir.NoReg, Args: []int{r0, r1}})
		bl.Ret()
	})
	cases = append(cases, batchCase{packets: mixed(), recv: recv, prog: recvls},
		batchCase{packets: mixed(), recv: wide, prog: recvls})

	// State carried from one iteration to the next: a persistent counter
	// (a batch of 32 must trace 1…32 in lane order) and a queue whose gets
	// see the puts of the iterations before.
	cnt := &ir.Array{ID: 0, Name: "cnt", Size: 1, Persistent: true}
	counter := build("serial/counter", func(bl *ir.Builder) {
		bl.Call("pkt_rx")
		zero := bl.Const(0)
		c := bl.Bin(ir.OpAdd, bl.Load(cnt, zero), bl.Const(1))
		bl.Store(cnt, zero, c)
		bl.CallVoid("trace", c)
		bl.Ret()
	})
	counter.Arrays = []*ir.Array{cnt}
	cases = append(cases, batchCase{packets: mixed(), serial: true, prog: counter},
		batchCase{packets: mixed(), serial: true, prog: build("serial/queue", func(bl *ir.Builder) {
			f := bl.Func
			get, done := f.NewBlock("get"), f.NewBlock("done")
			bl.Call("pkt_rx")
			v := bl.Call("pkt_byte", bl.Const(0))
			q := bl.Const(0)
			bl.CallVoid("q_put", q, v)
			bl.Br(bl.Bin(ir.OpAnd, v, bl.Const(1)), get, done)
			bl.SetBlock(get)
			bl.CallVoid("trace", bl.Call("q_get", q))
			bl.Jmp(done)
			bl.SetBlock(done)
			bl.CallVoid("trace", bl.Call("q_len", q))
			bl.Ret()
		})})

	// A persistent array the stage only loads is a constant table: the
	// stage stays lane-parallel.
	tbl := &ir.Array{ID: 0, Name: "tbl", Size: 4, Persistent: true, Init: []int64{50, 60, 70, 80}}
	table := build("parallel/table", func(bl *ir.Builder) {
		bl.Call("pkt_rx")
		bl.CallVoid("trace", bl.Load(tbl, bl.Call("pkt_byte", bl.Const(0))))
		bl.Ret()
	})
	table.Arrays = []*ir.Array{tbl}
	cases = append(cases, batchCase{packets: mixed(), prog: table})

	// pkt_send hands the packet to the event; a write after it must not
	// reach the bytes already sent, twice over.
	cases = append(cases, batchCase{packets: mixed(), prog: build("cow/send-set-send", func(bl *ir.Builder) {
		bl.Call("pkt_rx")
		bl.CallVoid("pkt_send", bl.Const(1))
		bl.CallVoid("pkt_setbyte", bl.Const(0), bl.Const(0xEE))
		bl.CallVoid("pkt_send", bl.Const(2))
		bl.CallVoid("pkt_setword", bl.Const(1), bl.Const(0x01020304))
		bl.CallVoid("pkt_send", bl.Const(3))
		bl.Ret()
	})})
	return cases
}

// TestBatchDivergenceAndParity runs every program at widths 1, 2, 7 and a
// full group of 32: one lane (where a batch is RunIteration), pairs, a
// width that leaves a ragged last batch, and all lanes at once.
func TestBatchDivergenceAndParity(t *testing.T) {
	for _, tc := range divergencePrograms() {
		for _, width := range []int{1, 2, 7, exec.Lanes} {
			tc.check(t, width)
		}
	}
}

// TestBatchSerialWhenEventsAreNotDeferred: the same stage is lane-parallel
// when its events go to per-iteration buffers and serial when they go
// straight to the World's trace, where their order is the iterations'.
func TestBatchSerialWhenEventsAreNotDeferred(t *testing.T) {
	prog := diamond("undeferred", func(bl *ir.Builder, v int) int { return bl.Bin(ir.OpAnd, v, bl.Const(1)) })
	packets := mixed()
	want := runInterp(prog, packets, len(packets))

	w := interp.NewWorld(packets)
	r := exec.NewRunner(prog.Clone(), w)
	its := make([]*interp.IterCtx, len(packets))
	for l := range its {
		its[l] = interp.NewIterCtx() // pkt_rx from the World's cursor, too
	}
	if err := r.RunBatch(its, nil, nil); err != nil {
		t.Fatal(err)
	}
	if diff := interp.TraceEqual(want.trace, w.Trace); diff != "" {
		t.Fatalf("undeferred batch: %s", diff)
	}
}

// TestBatchPacketPathAllocates pins the packet path: pkt_rx copies into the
// runner's slab, pkt_send hands the buffer to its event, so a served packet
// costs a share of one chunk and nothing else — and since what is left of a
// chunk carries over to the next batch, that holds for batches of one
// packet as it does for full groups. Each measured run is 64 batches.
func TestBatchPacketPathAllocates(t *testing.T) {
	pps, ok := netbench.ByName("IPv4")
	if !ok {
		t.Fatal("IPv4 benchmark missing")
	}
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	traffic := pps.Traffic(256)
	for _, width := range []int{1, exec.Lanes} {
		r := exec.NewRunner(prog, netbench.NewWorld(nil))
		r.RxFromCtx = true
		its := make([]*interp.IterCtx, width)
		for l := range its {
			its[l] = interp.NewIterCtx()
			its[l].DeferEvents = true
		}
		next := 0
		batches := func() {
			for b := 0; b < 64; b++ {
				for l := range its {
					its[l].Reset()
					its[l].Pending, its[l].HasPending = traffic[next%len(traffic)], true
					next++
				}
				if err := r.RunBatch(its, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		batches() // the event buffers reach their size
		perPacket := testing.AllocsPerRun(20, batches) / float64(64*width)
		if perPacket > 0.1 {
			t.Errorf("width %d: %.3f allocations per packet, want at most 0.1", width, perPacket)
		}
	}
}

// TestBlockAdapterParity holds RunBatch on blocks to RunIterationInto, the
// one-lane adapter, run lane by lane: every stage of every netbench PPS at
// D=2..5, batches of 1, 7, 32 and 33 taken through the stages stage-major,
// must send the same live sets and record the same events, and a batch must
// fail with the error of its first failing lane. Beside the whole stream,
// one batch per stage that receives a live set loses one lane's: its
// upstream sent nothing, and recvls must say so the same way both ways.
func TestBlockAdapterParity(t *testing.T) {
	const n = 70
	for _, pps := range append(netbench.IPv4Forwarding(), netbench.IPForwarding()...) {
		prog, err := pps.Compile()
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		traffic := pps.Traffic(n)
		for d := 2; d <= 5; d++ {
			res, err := core.Partition(prog, core.Options{Stages: d})
			if err != nil {
				t.Fatalf("%s D=%d: %v", pps.Name, d, err)
			}
			for _, width := range []int{1, 7, exec.Lanes, exec.Lanes + 1} {
				tag := fmt.Sprintf("%s D=%d width %d", pps.Name, d, width)
				chainParity(t, tag, res.Stages, traffic, width, -1)
				for k := 1; k < d; k++ {
					chainParity(t, fmt.Sprintf("%s, stage %d's lane %d sent nothing", tag, k, width/2),
						res.Stages, traffic[:width], width, k)
				}
			}
		}
	}
}

// chainParity runs packets through stages a batch of width at a time, each
// batch through every stage before the next, on two sets of runners: lane by
// lane through RunIterationInto and a batch at a time through RunBatch on
// blocks. When hole is a stage, lane width/2 of the first batch arrives there
// with no live set, and the run ends after that stage.
func chainParity(t *testing.T, tag string, stages []*ir.Program, packets [][]byte, width, hole int) {
	t.Helper()
	lanes, blocks := exec.NewStageRunners(cloneStages(stages), netbench.NewWorld(nil)),
		exec.NewStageRunners(cloneStages(stages), netbench.NewWorld(nil))
	for k := range stages {
		lanes[k].RxFromCtx, blocks[k].RxFromCtx = true, true
	}
	in, out := exec.NewBlocks(0, width)
	for lo := 0; lo < len(packets); lo += width {
		batch := packets[lo:min(lo+width, len(packets))]
		a, b := streamCtxs(batch, len(batch)), streamCtxs(batch, len(batch))
		recv := make([][]int64, len(batch))
		in.Reset()
		for k := range stages {
			if k == hole {
				recv[width/2] = nil
				in.SetRow(width/2, nil)
			}
			first, failed := "", len(batch)
			for l, ctx := range a {
				sent, err := lanes[k].RunIterationInto(ctx, recv[l], nil)
				if err != nil && failed == len(batch) {
					first, failed = err.Error(), l
				}
				recv[l] = sent
			}
			err := blocks[k].RunBatch(b, in, out)
			if errText(err) != first {
				t.Fatalf("%s, batch at %d, stage %d: RunBatch error %q, lane by lane %q", tag, lo, k+1, errText(err), first)
			}
			for l := 0; l < len(batch) && l <= failed; l++ {
				if diff := interp.TraceEqual(a[l].Events, b[l].Events); diff != "" {
					t.Fatalf("%s, batch at %d, stage %d, lane %d: %s", tag, lo, k+1, l, diff)
				}
				if sent, _ := out.Row(l, nil); l < failed && fmt.Sprint(sent) != fmt.Sprint(recv[l]) {
					t.Fatalf("%s, batch at %d, stage %d, lane %d: sent %v, lane by lane %v", tag, lo, k+1, l, sent, recv[l])
				}
			}
			if err != nil {
				return
			}
			in, out = out, in
		}
	}
	if hole >= 0 {
		t.Fatalf("%s: no lane failed", tag)
	}
}

// TestBlockHoldsOneWidth: a block's rows share one width, so a batch whose
// lanes leave through OpSendLS instructions of different widths fails the
// later lanes with an error instead of mislabelling what the others sent.
// One lane at a time, each is fine.
func TestBlockHoldsOneWidth(t *testing.T) {
	prog := build("widths", func(bl *ir.Builder) {
		f := bl.Func
		one, two := f.NewBlock("one"), f.NewBlock("two")
		bl.Call("pkt_rx")
		v := bl.Call("pkt_byte", bl.Const(0))
		bl.Br(bl.Bin(ir.OpAnd, v, bl.Const(1)), one, two)
		for _, arm := range []struct {
			b     *ir.Block
			slots int
		}{{one, 1}, {two, 2}} {
			bl.SetBlock(arm.b)
			args := make([]int, arm.slots)
			for i := range args {
				args[i] = v
			}
			bl.Cur.Instrs = append(bl.Cur.Instrs, &ir.Instr{Op: ir.OpSendLS, Dst: ir.NoReg, Args: args})
			bl.Ret()
		}
	})
	packets := bytePackets(1, 2)
	r := exec.NewRunner(prog, interp.NewWorld(nil))
	r.RxFromCtx = true
	for i, p := range packets {
		if sent, err := r.RunIterationInto(newCtx(p), nil, nil); err != nil || len(sent) != i+1 {
			t.Fatalf("lane %d alone: sent %v, %v", i, sent, err)
		}
	}
	its := []*interp.IterCtx{newCtx(packets[0]), newCtx(packets[1])}
	in, out := exec.NewBlocks(0, len(its))
	want := "widths: sendls of 2 slots into a batch that sent 1"
	if err := r.RunBatch(its, in, out); errText(err) != want {
		t.Fatalf("batch error %q, want %q", errText(err), want)
	}
}
