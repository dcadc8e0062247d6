package runtime

// White-box coverage of the zero-copy inter-stage handoff: the number of
// words a handoff moves, the buffer discipline that makes it
// allocation-free, and the token layout that keeps the handoff state on
// one cache line.

import (
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
)

// sendWords returns the live-set width (in 8-byte words) of a stage's
// OpSendLS, or -1 when the stage transmits nothing (the last stage).
func sendWords(prog *ir.Program) int {
	for _, b := range prog.Func.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpSendLS {
				return len(in.Args)
			}
		}
	}
	return -1
}

// TestHandoffBytesPerPacket pins the cost of one inter-stage handoff: the
// words copied are exactly the cut's live set (no framing, no packet
// bytes — those travel by pointer in the IterCtx), the live set is small
// enough that a handoff is a few word moves, and with a warm destination
// buffer the transmitting stage writes in place instead of allocating —
// the buffer handed in is the buffer that comes back.
func TestHandoffBytesPerPacket(t *testing.T) {
	pps, ok := netbench.ByName("IPv4")
	if !ok {
		t.Fatal("IPv4 benchmark missing")
	}
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 4})
	if err != nil {
		t.Fatal(err)
	}
	stages := res.Stages
	runners := interp.NewStageRunners(stages, netbench.NewWorld(nil))
	for _, r := range runners {
		r.RxFromCtx = true
	}
	ctx := interp.NewIterCtx()
	traffic := pps.Traffic(8)
	slots := make([]int64, 0, 64)
	spare := make([]int64, 0, 64)
	for i, pkt := range traffic {
		ctx.Pending, ctx.HasPending = pkt, true
		for k, r := range runners {
			dst := spare[:0]
			out, err := r.RunIterationInto(ctx, slots, dst)
			if err != nil {
				t.Fatalf("packet %d stage %d: %v", i, k+1, err)
			}
			if k == len(runners)-1 {
				if out != nil {
					t.Fatalf("last stage transmitted a live set: %v", out)
				}
				break
			}
			want := sendWords(stages[k])
			if want < 0 {
				t.Fatalf("stage %d has no OpSendLS yet is not last", k+1)
			}
			if len(out) != want {
				t.Fatalf("cut %d moved %d words, OpSendLS carries %d", k+1, len(out), want)
			}
			if len(out) > 16 {
				t.Errorf("cut %d live set is %d words (%d bytes) — a handoff must stay within two cache lines",
					k+1, len(out), 8*len(out))
			}
			if len(out) > 0 && &out[0] != &dst[:1][0] {
				t.Fatalf("cut %d: warm handoff allocated a fresh buffer instead of writing the caller's", k+1)
			}
			// Ping-pong as the serve runtime's batch blocks do: the buffer
			// just filled becomes the input, the consumed one the next
			// destination.
			slots, spare = out, slots
		}
		slots, spare = slots[:0], spare[:0]
		ctx.Reset()
	}
}

// TestTokenHandoffLayout pins the token's cache-line discipline: the
// fields touched on every handoff — the iteration context pointer and the
// sequence number — must live in the token's first 64 bytes, so one line
// load brings in the whole handoff state. (The live set is not in the
// token: it rides in its batch's block.)
func TestTokenHandoffLayout(t *testing.T) {
	var tok token
	const line = 64
	if off := unsafe.Offsetof(tok.ctx); off+unsafe.Sizeof(tok.ctx) > line {
		t.Errorf("token.ctx ends at byte %d, past the first cache line", off+unsafe.Sizeof(tok.ctx))
	}
	if off := unsafe.Offsetof(tok.iter); off+unsafe.Sizeof(tok.iter) > line {
		t.Errorf("token.iter ends at byte %d, past the first cache line", off+unsafe.Sizeof(tok.iter))
	}
}
