package runtime

// White-box coverage of the batch-at-a-time stage step: which tokens of a
// batch reach the stage body, what a panic out of the body costs, and who
// owns a packet's bytes once the pipeline has them.

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
	"repro/internal/runtime/fault"
)

func ipv4Stages(t *testing.T, d int) (*ir.Program, []*ir.Program, [][]byte) {
	t.Helper()
	pps, ok := netbench.ByName("IPv4")
	if !ok {
		t.Fatal("IPv4 benchmark missing")
	}
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: d})
	if err != nil {
		t.Fatal(err)
	}
	return prog, res.Stages, pps.Traffic(16)
}

// TestExecBatchSkipsDeadAndDegraded hands one stage a batch of eight in
// which a fault plan panics tokens 2 and 5 at admission: the body must run
// over the other six only — one group — and they must come back in order,
// closed up, each with its live set in rows 0–5 and, after stage 2, the
// oracle's events for its own packet.
func TestExecBatchSkipsDeadAndDegraded(t *testing.T) {
	_, stages, traffic := ipv4Stages(t, 2)
	plan := &fault.Plan{Injections: []fault.Injection{
		{Kind: fault.Panic, Stage: 1, At: 2},
		{Kind: fault.Panic, Stage: 1, At: 5},
	}}
	lay, err := NewLayout(stages, Config{Batch: 8, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	e, err := build(lay, netbench.NewWorld(nil), Packets(nil))
	if err != nil {
		t.Fatal(err)
	}
	e.ictx, e.stop = context.Background(), context.Background()
	b := e.getBatch()
	var want []*token
	for i := 0; i < 8; i++ {
		tok := e.getToken()
		tok.iter = int64(i)
		tok.ctx.Pending, tok.ctx.HasPending = traffic[i], true
		b.toks = append(b.toks, tok)
		if i != 2 && i != 5 {
			want = append(want, tok)
		}
	}

	lc := e.lane(0, 0)
	if ok := e.execBatch(lc, b); !ok || len(b.toks) != len(want) {
		t.Fatalf("execBatch kept %d of 8 tokens (ok=%v), want %d", len(b.toks), ok, len(want))
	}
	if q := lc.probe.quarantined.Load(); q != 2 {
		t.Errorf("quarantined %d, want 2", q)
	}
	for i, tok := range b.toks {
		if tok != want[i] {
			t.Fatalf("row %d holds iteration %d, want %d", i, tok.iter, want[i].iter)
		}
		if tok.ctx.HasPending {
			t.Errorf("iteration %d: body did not run", tok.iter)
		}
		if _, sent := b.in.Row(i, nil); !sent {
			t.Errorf("iteration %d executed but row %d carries no live set", tok.iter, i)
		}
	}

	// The six go on through stage 2 and end with the oracle's events.
	if !e.execBatch(e.lane(1, 0), b) {
		t.Fatal("stage 2 failed")
	}
	for _, tok := range b.toks {
		w := netbench.NewWorld([][]byte{traffic[tok.iter]})
		want, err := interp.RunPipeline(stages, w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if diff := interp.TraceEqual(want, tok.ctx.Events); diff != "" {
			t.Errorf("iteration %d: %s", tok.iter, diff)
		}
	}
}

// rowStages is a two-stage pipeline whose cut carries what tells packets
// apart: stage 1 sends the packet's first byte and three times it, stage 2
// traces both. A live set that lands in another token's row shows in the
// trace.
func rowStages() []*ir.Program {
	f1 := ir.NewFunc("send")
	b1 := ir.NewBuilder(f1)
	b1.Call("pkt_rx")
	v := b1.Call("pkt_byte", b1.Const(0))
	w := b1.Bin(ir.OpMul, v, b1.Const(3))
	b1.Cur.Instrs = append(b1.Cur.Instrs, &ir.Instr{Op: ir.OpSendLS, Dst: ir.NoReg, Args: []int{v, w}, Tx: true})
	b1.Ret()
	f2 := ir.NewFunc("recv")
	b2 := ir.NewBuilder(f2)
	a, c := f2.NewReg(), f2.NewReg()
	b2.Cur.Instrs = append(b2.Cur.Instrs, &ir.Instr{Op: ir.OpRecvLS, Dst: ir.NoReg, Dsts: []int{a, c}, Tx: true})
	b2.CallVoid("trace", a)
	b2.CallVoid("trace", c)
	b2.Ret()
	return []*ir.Program{{Name: "send", Func: f1}, {Name: "recv", Func: f2}}
}

// TestRowsFollowTheirTokens quarantines every fifth iteration before stage
// 1 and every third before stage 2, so tokens leave batches at both stages
// and the rows after a dropped token close up, unsharded and sharded. Every
// delivered iteration must trace its own packet's byte, at batches of one
// group and of two. (A live set crossing a
// scatter or a fan-in between stages is TestServeShardedJunctionsCarryLiveSets'.)
func TestRowsFollowTheirTokens(t *testing.T) {
	const n = 150
	traffic := make([][]byte, n)
	var want []interp.Event
	for i := range traffic {
		traffic[i] = []byte{byte(i), byte(i * 7)}
		if (i+1)%5 != 0 && (i+1)%3 != 0 {
			want = append(want, interp.Event{Kind: interp.EvTrace, Val: int64(i)},
				interp.Event{Kind: interp.EvTrace, Val: int64(3 * i)})
		}
	}
	for _, batch := range []int{8, 33} {
		for _, p := range []int{1, 2} {
			plan := &fault.Plan{Injections: []fault.Injection{
				{Kind: fault.Panic, Stage: 1, Every: 5},
				{Kind: fault.Panic, Stage: 2, Every: 3},
			}}
			m, err := Serve(context.Background(), rowStages(), interp.NewWorld(nil), Packets(traffic),
				Config{Batch: batch, Shards: p, Faults: plan})
			if err != nil {
				t.Fatalf("batch %d P=%d: %v", batch, p, err)
			}
			if diff := interp.TraceEqual(want, m.Trace); diff != "" {
				t.Errorf("batch %d P=%d: %s", batch, p, diff)
			}
		}
	}
}

// panicStage is a one-stage pipeline whose body dereferences a nil array —
// a bug no fault plan injected — for every packet whose first byte is 7.
func panicStage() *ir.Program {
	f := ir.NewFunc("panics")
	bl := ir.NewBuilder(f)
	bad, ok := f.NewBlock("bad"), f.NewBlock("ok")
	bl.Call("pkt_rx")
	v := bl.Call("pkt_byte", bl.Const(0))
	bl.Br(bl.Bin(ir.OpEq, v, bl.Const(7)), bad, ok)
	bl.SetBlock(bad)
	bl.Load(nil, v)
	bl.Jmp(ok)
	bl.SetBlock(ok)
	bl.CallVoid("trace", v)
	bl.Ret()
	return &ir.Program{Name: "panics", Func: f}
}

// TestBodyPanicQuarantinesItsGroup: a panic out of the stage body cannot be
// pinned on one lane, so the batch it happened in is quarantined whole —
// each token recorded, the event counted — while the other batches are
// delivered and the ledger balances.
func TestBodyPanicQuarantinesItsGroup(t *testing.T) {
	const n, batch = 16, 4
	traffic := make([][]byte, n)
	for i := range traffic {
		traffic[i] = []byte{byte(i)}
	}
	m, err := Serve(context.Background(), []*ir.Program{panicStage()}, interp.NewWorld(nil), Packets(traffic), Config{Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Faults
	if rep.Quarantined != batch || rep.Delivered != n-batch || rep.Accounted() != m.Stages[0].In {
		t.Fatalf("quarantined %d delivered %d of %d pulled, want %d and %d\n%s",
			rep.Quarantined, rep.Delivered, m.Stages[0].In, batch, n-batch, rep)
	}
	for i, rec := range rep.Records {
		if rec.Iter != int64(4+i) || rec.Stage != 1 || !strings.Contains(rec.Reason, "stage panic") {
			t.Errorf("record %d: %+v, want iteration %d quarantined at stage 1 for a stage panic", i, rec, 4+i)
		}
	}
	if got := m.Stages[0].BodyPanics; got != 1 {
		t.Errorf("BodyPanics = %d, want 1", got)
	}
	var want []interp.Event
	for i := 0; i < n; i++ {
		if i/batch != 7/batch {
			want = append(want, interp.Event{Kind: interp.EvTrace, Val: int64(i)})
		}
	}
	if diff := interp.TraceEqual(want, m.Trace); diff != "" {
		t.Errorf("delivered batches: %s", diff)
	}
}

// ownedPackets is a Source that hands its packets over, as the ingest
// sources do: Pull gives out the next batch of pkts.
type ownedPackets struct{ pkts [][]byte }

func (o *ownedPackets) Pull(_ context.Context, dst [][]byte) (int, error) {
	if len(o.pkts) == 0 {
		return 0, io.EOF
	}
	n := copy(dst, o.pkts)
	o.pkts = o.pkts[n:]
	return n, nil
}

// TestPacketOwnership serves a pipeline that rewrites every packet it
// forwards (TTL and checksum) from both kinds of source. An in-memory
// source may hand the same bytes out again, so they must come through
// bit-identical however often the cycle repeats; a source that transfers
// ownership gets no copy — the sent events carry its own buffers, rewritten
// in place.
func TestPacketOwnership(t *testing.T) {
	prog, stages, traffic := ipv4Stages(t, 2)
	var stream, pristine [][]byte
	for lap := 0; lap < 3; lap++ {
		stream = append(stream, traffic...)
	}
	for _, p := range traffic {
		pristine = append(pristine, bytes.Clone(p))
	}
	want, err := interp.RunSequential(prog, netbench.NewWorld(stream), len(stream))
	if err != nil {
		t.Fatal(err)
	}
	serve := func(src Source) *Metrics {
		t.Helper()
		m, err := Serve(context.Background(), stages, netbench.NewWorld(nil), src, Config{Batch: 8})
		if err != nil {
			t.Fatal(err)
		}
		if diff := interp.TraceEqual(want, m.Trace); diff != "" {
			t.Fatalf("served trace: %s", diff)
		}
		return m
	}

	serve(Repeat(traffic, len(stream)))
	for i, p := range traffic {
		if !bytes.Equal(p, pristine[i]) {
			t.Fatalf("packet %d of the in-memory source was rewritten in place", i)
		}
	}

	own := make(map[*byte]bool)
	src := &ownedPackets{}
	for _, p := range stream {
		p = bytes.Clone(p)
		src.pkts = append(src.pkts, p)
		own[&p[0]] = true
	}
	sends := 0
	for _, ev := range serve(src).Trace {
		if ev.Kind == interp.EvSend {
			sends++
			if !own[&ev.Pkt[0]] {
				t.Fatalf("send event %d carries a copy of an owned packet", sends)
			}
		}
	}
	if sends == 0 {
		t.Fatal("the traffic forwarded nothing")
	}
}
