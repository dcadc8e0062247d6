package spsc

import (
	"testing"
)

// BenchmarkRingChanVsSPSC sets this ring against a buffered Go channel in
// the shapes that matter on the hot path: a one-int entry, and an entry
// that is a whole 32-element batch — what the serve runtime's rings carry,
// one batch of tokens per entry — each uncontended (one goroutine, the fast
// path) and ping-pong (two goroutines bouncing through a ring pair — the
// stage-boundary shape, where a blocked channel side pays the scheduler
// park/unpark this package exists to avoid). The measured figures are
// recorded in EXPERIMENTS.md and are where fusion.go's ring-tax constant
// comes from.
func BenchmarkRingChanVsSPSC(b *testing.B) {
	benchEntry(b, "1", 0)
	benchEntry(b, "32", make([]int, 32))
}

// benchEntry runs the four BenchmarkRingChanVsSPSC shapes with v as the
// entry every handoff moves.
func benchEntry[T any](b *testing.B, size string, v T) {
	b.Run("chan/uncontended-"+size, func(b *testing.B) {
		ch := make(chan T, 8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ch <- v
			<-ch
		}
	})
	b.Run("spsc/uncontended-"+size, func(b *testing.B) {
		r := New[T](8, DefaultStrategy())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.TryPush(v)
			r.TryPop()
		}
	})
	b.Run("chan/pingpong-"+size, func(b *testing.B) {
		fwd := make(chan T, 8)
		bwd := make(chan T, 8)
		go func() {
			for v := range fwd {
				bwd <- v
			}
			close(bwd)
		}()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fwd <- v
			<-bwd
		}
		close(fwd)
	})
	b.Run("spsc/pingpong-"+size, func(b *testing.B) {
		fwd := New[T](8, DefaultStrategy())
		bwd := New[T](8, DefaultStrategy())
		go func() {
			for {
				v, ok, _ := fwd.Pop(nil, nil)
				if !ok {
					bwd.Close()
					return
				}
				bwd.Push(v, nil, nil)
			}
		}()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fwd.Push(v, nil, nil)
			bwd.Pop(nil, nil)
		}
		fwd.Close()
	})
}
