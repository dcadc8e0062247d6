package runtime

// White-box coverage of the token pool's hygiene: a token recycled
// through putToken/getToken must come back pristine, because the pool is
// shared across packets and a stale field would leak one packet's locals,
// metadata, or deferred events into another's iteration.

import (
	"testing"

	"repro/internal/interp"
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

// TestBatchRecycleNeverLeaks drives the batch-granular fast path: whole
// retired batches handed back through recycleBatch must come out of
// takeBatch with every row of their blocks empty, and their tokens out of
// tokenAt pristine and in deferred-events mode, exactly like the per-token
// pool path they replace on the serve hot loop. The rounds fill batches of
// varying size, so recycled tokens are reused, topped up and trimmed.
func TestBatchRecycleNeverLeaks(t *testing.T) {
	const rows = 8
	e := &engine{free: spsc.New[*batch](2, spsc.DefaultStrategy())}
	e.tokPool, e.batchPool = newPools(rows, 3)
	for round := 0; round < 50; round++ {
		b := e.takeBatch()
		for r := 0; r < rows; r++ {
			if vals, sent := b.in.Row(r, nil); sent {
				t.Fatalf("round %d: recycled batch leaks row %d's live set %v", round, r, vals)
			}
		}
		n := 1 + round%rows
		for i := 0; i < n; i++ {
			tok := e.tokenAt(b, i)
			if !tok.ctx.DeferEvents {
				t.Fatal("tokenAt must hand out tokens in deferred-events mode")
			}
			tok.ctx.DeferEvents = false // neutralize for checkPristine's event check
			checkPristine(t, tok)
			tok.ctx.DeferEvents = true
			dirtyToken(tok)
			b.in.SetRow(i, []int64{1, 2, int64(i)})
		}
		e.trim(b, n)
		if len(b.toks) != n {
			t.Fatalf("round %d: a batch filled with %d tokens holds %d", round, n, len(b.toks))
		}
		e.recycleBatch(b)
	}
}

// TestTokenPoolRecycleNeverLeaks drives the engine's actual pool path:
// tokens dirtied by a (simulated) packet iteration and returned via
// putToken must be pristine when getToken hands them out again, no matter
// how many recycles happen. sync.Pool may hand back either a recycled or
// a fresh token; both must be indistinguishable.
func TestTokenPoolRecycleNeverLeaks(t *testing.T) {
	e := &engine{}
	e.tokPool, _ = newPools(1, 0)
	for round := 0; round < 100; round++ {
		tok := e.getToken()
		if !tok.ctx.DeferEvents {
			t.Fatal("getToken must hand out tokens in deferred-events mode")
		}
		tok.ctx.DeferEvents = false // neutralize for checkPristine's event check
		checkPristine(t, tok)
		dirtyToken(tok)
		e.putToken(tok)
	}
}
