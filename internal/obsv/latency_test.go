package obsv

import (
	"testing"
	"time"
)

func ms(n int64) time.Duration { return time.Duration(n) * time.Millisecond }

func TestBatchLatencies(t *testing.T) {
	spans := []Span{
		// Batch 0: stage 1 execs 0–2ms, stage 2 execs 3–7ms.
		{Stage: 1, Iter: 0, N: 4, Phase: PhaseExec, Start: ms(0), Dur: ms(2)},
		{Stage: 1, Iter: 0, N: 4, Phase: PhaseTx, Start: ms(2), Dur: ms(1)},
		{Stage: 2, Iter: 0, N: 4, Phase: PhaseExec, Start: ms(3), Dur: ms(4)},
		// Batch 4: starts at 2ms on stage 1, done at 10ms on stage 2.
		{Stage: 1, Iter: 4, N: 4, Phase: PhaseExec, Start: ms(2), Dur: ms(2)},
		{Stage: 2, Iter: 4, N: 4, Phase: PhaseExec, Start: ms(7), Dur: ms(3)},
		// A wait that ended in ring close: no batch identity, skipped.
		{Stage: 2, Iter: -1, Phase: PhaseWait, Start: ms(10), Dur: ms(5)},
	}
	lats := BatchLatencies(spans)
	if len(lats) != 2 {
		t.Fatalf("got %d batches, want 2", len(lats))
	}
	if lats[0].Iter != 0 || lats[0].Latency != ms(7) {
		t.Errorf("batch 0: %+v, want latency 7ms", lats[0])
	}
	if lats[1].Iter != 4 || lats[1].Latency != ms(8) {
		t.Errorf("batch 4: %+v, want latency 8ms", lats[1])
	}
	if lats[0].N != 4 {
		t.Errorf("batch 0 N = %d, want 4", lats[0].N)
	}
}
