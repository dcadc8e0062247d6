package runtime

// White-box coverage of the batches a serve recycles: a batch owns its
// tokens for the whole serve, so a token that comes back to the source
// through the free ring must come back pristine — a stale field would leak
// one packet's locals, metadata, or deferred events into another's
// iteration — and the free ring must take back every batch the source made.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/interp"
	"repro/internal/netbench"
	"repro/internal/runtime/fault"
	"repro/internal/spsc"
)

// dirtyToken fills every per-iteration field of a token the way a stage
// execution would.
func dirtyToken(t *token) {
	t.ctx.Pkt, t.ctx.HasPkt = []byte{0xde, 0xad}, true
	t.ctx.Meta[0], t.ctx.Meta[15] = 42, -7
	loc := t.ctx.Local(0, 4)
	loc[0], loc[3] = 11, 13
	t.ctx.Pending, t.ctx.HasPending = []byte{0xbe, 0xef}, true
	t.ctx.DeferEvents = true
	t.ctx.Events = append(t.ctx.Events, interp.Event{Kind: interp.EvTrace, Val: 99})
	t.iter = 17
}

// checkPristine fails if any per-iteration state survived a reset.
func checkPristine(t *testing.T, tok *token) {
	t.Helper()
	ctx := tok.ctx
	if ctx.Pkt != nil || ctx.HasPkt {
		t.Errorf("recycled token leaks packet: Pkt=%v HasPkt=%v", ctx.Pkt, ctx.HasPkt)
	}
	if ctx.Meta != [16]int64{} {
		t.Errorf("recycled token leaks metadata: %v", ctx.Meta)
	}
	for i, v := range ctx.Local(0, 4) {
		if v != 0 {
			t.Errorf("recycled token leaks local array slot %d = %d", i, v)
		}
	}
	if ctx.Pending != nil || ctx.HasPending {
		t.Errorf("recycled token leaks pending packet: %v", ctx.Pending)
	}
	if len(ctx.Events) != 0 {
		t.Errorf("recycled token leaks deferred events: %v", ctx.Events)
	}
	if tok.iter != 0 {
		t.Errorf("recycled token leaks control state: iter=%d", tok.iter)
	}
}

// TestTokenResetClearsIterationState checks reset directly: every field a
// stage execution can touch is returned to its zero state.
func TestTokenResetClearsIterationState(t *testing.T) {
	tok := &token{ctx: interp.NewIterCtx()}
	dirtyToken(tok)
	tok.reset()
	checkPristine(t, tok)
}

// TestBatchRecycleNeverLeaks drives the recycling path: batches filled to
// varying lengths, dirtied and handed back through recycleBatch must come
// out of takeBatch with every row of their blocks empty and every one of
// their tokens — those past len(toks) too — pristine and in deferred-events
// mode. Two batches are in flight each round, so the free ring holds both
// and takeBatch makes no more than those two.
func TestBatchRecycleNeverLeaks(t *testing.T) {
	const rows = 8
	e := &engine{cfg: Config{Batch: rows}, slots: 3, free: spsc.New[*batch](2, spsc.DefaultStrategy())}
	for round := 0; round < 50; round++ {
		bs := [2]*batch{e.takeBatch(), e.takeBatch()}
		for k, b := range bs {
			if cap(b.toks) != rows {
				t.Fatalf("round %d: a batch owns %d tokens, want %d", round, cap(b.toks), rows)
			}
			for r := 0; r < rows; r++ {
				if vals, sent := b.in.Row(r, nil); sent {
					t.Fatalf("round %d: recycled batch leaks row %d's live set %v", round, r, vals)
				}
			}
			for _, tok := range b.toks[:rows] {
				if !tok.ctx.DeferEvents {
					t.Fatal("takeBatch must hand out tokens in deferred-events mode")
				}
				checkPristine(t, tok)
			}
			b.toks = b.toks[:1+(round+k)%rows]
			for i, tok := range b.toks {
				dirtyToken(tok)
				b.in.SetRow(i, []int64{1, 2, int64(i)})
			}
		}
		for _, b := range bs {
			e.recycleBatch(b)
		}
	}
	if e.made != 2 || e.free.Len() != 2 {
		t.Fatalf("takeBatch made %d batches and the free ring holds %d, want 2 and 2", e.made, e.free.Len())
	}
}

// TestFreeRingTakesEveryBatch holds the serve to what lets a batch own its
// tokens: the source makes a batch only when the free ring is empty, so the
// ring, sized for every batch the serve can have, never refuses a retired
// one. Each serve runs at the smallest rings, with short pulls and panic
// plans that quarantine single tokens and empty whole batches, unsharded and
// sharded; after a clean finish the free ring must hold every batch the
// source made, and the ledger must balance.
func TestFreeRingTakesEveryBatch(t *testing.T) {
	_, stages, traffic := ipv4Stages(t, 4)
	var stream [][]byte
	for lap := 0; lap < 4; lap++ {
		stream = append(stream, traffic...)
	}
	plans := []*fault.Plan{
		nil,
		{Injections: []fault.Injection{ // one token a stage
			{Kind: fault.Panic, Stage: 1, At: 2}, {Kind: fault.Panic, Stage: 2, At: 5},
			{Kind: fault.Panic, Stage: 3, At: 8}, {Kind: fault.Panic, Stage: 4, At: 11},
		}},
		{Injections: []fault.Injection{ // a cadence, and a one-off downstream
			{Kind: fault.Panic, Stage: 1, Every: 6}, {Kind: fault.Panic, Stage: 2, At: 3},
		}},
		{Injections: []fault.Injection{ // every batch emptied at stage 3
			{Kind: fault.Panic, Stage: 3, Every: 1},
		}},
	}
	for _, batch := range []int{1, 8} {
		for _, p := range []int{1, 2} {
			for i, plan := range plans {
				t.Run(fmt.Sprintf("batch=%d/P=%d/plan=%d", batch, p, i), func(t *testing.T) {
					lay, err := NewLayout(stages, Config{RingCapacity: 1, Batch: batch, Shards: p, Faults: plan})
					if err != nil {
						t.Fatal(err)
					}
					src := &ownedPackets{} // the packets are handed over: one buffer each
					for _, p := range stream {
						src.pkts = append(src.pkts, bytes.Clone(p))
					}
					world := netbench.NewWorld(nil)
					e, err := build(lay, world, src)
					if err != nil {
						t.Fatal(err)
					}
					e.run(context.Background())
					m, err := e.finish(context.Background(), world)
					if err != nil {
						t.Fatal(err)
					}
					if rep := m.Faults; m.Stages[0].In != int64(len(stream)) || rep.Accounted() != m.Stages[0].In {
						t.Fatalf("pulled %d of %d, delivered %d, quarantined %d",
							m.Stages[0].In, len(stream), rep.Delivered, rep.Quarantined)
					}
					if e.made == 0 || e.free.Len() != e.made {
						t.Fatalf("the source made %d batches, the free ring holds %d", e.made, e.free.Len())
					}
				})
			}
		}
	}
}
