package runtime_test

import (
	"context"
	"errors"
	"fmt"
	gort "runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
	"repro/internal/runtime"
)

// cutApp compiles a netbench PPS and cuts it d ways.
func cutApp(t *testing.T, name string, d int) (*ir.Program, []*ir.Program) {
	t.Helper()
	pps, ok := netbench.ByName(name)
	if !ok {
		t.Fatalf("no PPS %q", name)
	}
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog.Clone(), core.Options{Stages: d})
	if err != nil {
		t.Fatal(err)
	}
	return prog, res.Stages
}

// TestTraceSinkKeepsEveryEvent: what the trace sink hands back at Close is
// what it was pushed, event for event — across column-chunk boundaries, with
// packets on some events only, and with a nil packet kept apart from an empty
// one (the hash sink tells them apart).
func TestTraceSinkKeepsEveryEvent(t *testing.T) {
	var want []interp.Event
	for i := 0; i < 3*(1<<15)+17; i++ {
		switch i % 5 {
		case 0, 3:
			want = append(want, interp.Event{Kind: interp.EvSend, Val: int64(i % 7), Pkt: []byte{byte(i), byte(i >> 8)}})
		case 1:
			want = append(want, interp.Event{Kind: interp.EvTrace, Val: -int64(i)})
		case 2:
			want = append(want, interp.Event{Kind: interp.EvDrop})
		case 4:
			want = append(want, interp.Event{Kind: interp.EvSend, Val: 1, Pkt: []byte{}}, interp.Event{Kind: interp.EvSend, Val: 2})
		}
	}
	s := &runtime.TraceSink{}
	buf := make([]interp.Event, 0, 100)
	for lo := 0; lo < len(want); lo += 100 {
		buf = append(buf[:0], want[lo:min(lo+100, len(want))]...)
		if err := s.Push(context.Background(), buf); err != nil {
			t.Fatal(err)
		}
		clear(buf) // the slice is the pusher's again: the sink must not have kept it
	}
	if s.Events() != nil {
		t.Error("Events before Close")
	}
	flushed, err := s.Close()
	if err != nil || flushed != int64(len(want)) {
		t.Fatalf("Close = %d, %v, want %d", flushed, err, len(want))
	}
	got := s.Events()
	if len(got) != len(want) {
		t.Fatalf("%d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) || (got[i].Pkt == nil) != (want[i].Pkt == nil) {
			t.Fatalf("event %d: %v (nil packet %v), want %v (nil packet %v)",
				i, got[i], got[i].Pkt == nil, want[i], want[i].Pkt == nil)
		}
	}
}

// failingSink accepts pushes until the failAt-th, which it refuses; it counts
// the iterations it accepted (each IPv4 iteration ends in exactly one send or
// drop) and the calls to Close.
type failingSink struct {
	failAt           int
	pushes, accepted int
	closed           int
}

var errSinkFull = errors.New("sink full")

func (s *failingSink) Push(_ context.Context, evs []interp.Event) error {
	if s.pushes++; s.pushes == s.failAt {
		return errSinkFull
	}
	for _, e := range evs {
		if e.Kind != interp.EvTrace {
			s.accepted++
		}
	}
	return nil
}

func (s *failingSink) Close() (int64, error) {
	s.closed++
	return int64(s.accepted), nil
}

// TestServeSinkErrorEndsServe: a Push that returns an error ends the serve
// with that error wrapped; Close still runs, once; Delivered is exactly what
// the sink accepted and nothing is accounted that was not pulled.
func TestServeSinkErrorEndsServe(t *testing.T) {
	const n = 4000
	_, stages := cutApp(t, "IPv4", 2)
	traffic := ipv4Traffic(n)
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			sink := &failingSink{failAt: 20}
			cfg := runtime.Config{Batch: 8, Shards: p, Sink: sink}
			m, err := runtime.Serve(context.Background(), stages, netbench.NewWorld(nil), runtime.Packets(traffic), cfg)
			if !errors.Is(err, errSinkFull) {
				t.Fatalf("err = %v, want the sink's error wrapped", err)
			}
			if sink.closed != 1 {
				t.Errorf("Close ran %d times, want once", sink.closed)
			}
			if m == nil {
				t.Fatal("no metrics from a serve its sink ended")
			}
			if m.Faults.Delivered != int64(sink.accepted) || m.Packets != int64(sink.accepted) || m.Flushed != int64(sink.accepted) {
				t.Errorf("delivered %d, retired %d, flushed %d; the sink accepted %d",
					m.Faults.Delivered, m.Packets, m.Flushed, sink.accepted)
			}
			if got, in := m.Faults.Accounted(), m.Stages[0].In; got > in || in > n || sink.accepted == 0 || sink.accepted >= n {
				t.Errorf("accounted %d of %d pulled (%d offered, %d accepted)", got, in, n, sink.accepted)
			}
			if m.Trace != nil {
				t.Error("Metrics.Trace set under a sink that is not the trace sink")
			}
		})
	}
}

// slowSink sleeps in its first push, then holds the second until released:
// the serve is provably still running when the test looks at it.
type slowSink struct {
	pushes  atomic.Int64
	release chan struct{}
}

func (s *slowSink) Push(ctx context.Context, _ []interp.Event) error {
	switch s.pushes.Add(1) {
	case 1:
		time.Sleep(5 * time.Millisecond)
	case 2:
		select {
		case <-s.release:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func (s *slowSink) Close() (int64, error) { return 0, nil }

// TestServeBlockingSinkBooksTxWait: the time a Push blocks is the pushing
// unit's transmit-side wait, booked on the last stage and visible in a
// Snapshot while the serve is still running — at P=1 from the last stage's
// own unit, at P=2 from the sink unit folded into it.
func TestServeBlockingSinkBooksTxWait(t *testing.T) {
	_, stages := cutApp(t, "IPv4", 2)
	traffic := ipv4Traffic(400)
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			sink := &slowSink{release: make(chan struct{})}
			var live atomic.Pointer[runtime.Live]
			cfg := runtime.Config{Batch: 4, Shards: p, Sink: sink, OnLive: func(l *runtime.Live) { live.Store(l) }}
			done := make(chan error, 1)
			go func() {
				_, err := runtime.Serve(context.Background(), stages, netbench.NewWorld(nil), runtime.Packets(traffic), cfg)
				done <- err
			}()
			for sink.pushes.Load() < 2 {
				time.Sleep(100 * time.Microsecond)
			}
			snap := live.Load().Snapshot()
			last := snap.Stages[len(snap.Stages)-1]
			if !snap.Running || last.TxWait < 5*time.Millisecond {
				t.Errorf("running=%v, last stage TxWait %v mid-serve, want the first push's 5ms", snap.Running, last.TxWait)
			}
			if last.SpinWait+last.ParkWait != last.TxWait+last.RxWait {
				t.Errorf("spin %v + park %v != tx %v + rx %v", last.SpinWait, last.ParkWait, last.TxWait, last.RxWait)
			}
			close(sink.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServeCancelDiscardSinkLeavesNoGoroutine cancels a discard-sink serve
// mid-stream, unsharded and through dispatcher, lanes and sink unit: Serve
// returns the context's error with partial metrics and every goroutine it
// started is gone.
func TestServeCancelDiscardSinkLeavesNoGoroutine(t *testing.T) {
	_, stages := cutApp(t, "IPv4", 2)
	pkt := netbench.IPv4Stream(1)[0]
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			before := gort.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			served := 0
			src := runtime.SourceFunc(func() ([]byte, bool) {
				if served++; served == 3001 { // mid-batch, mid-stream
					cancel()
				}
				return pkt, true // endless
			})
			cfg := runtime.Config{Batch: 8, Shards: p, Sink: runtime.Discard()}
			m, err := runtime.Serve(ctx, stages, netbench.NewWorld(nil), src, cfg)
			if !errors.Is(err, context.Canceled) || m == nil {
				t.Fatalf("Serve = %v, %v; want partial metrics and context.Canceled", m, err)
			}
			if m.Faults.Accounted() > m.Stages[0].In || m.Flushed == 0 {
				t.Errorf("accounted %d of %d pulled, flushed %d", m.Faults.Accounted(), m.Stages[0].In, m.Flushed)
			}
			deadline := time.Now().Add(2 * time.Second)
			for gort.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if g := gort.NumGoroutine(); g > before {
				buf := make([]byte, 1<<16)
				t.Fatalf("goroutine leak after cancel: %d > %d\n%s", g, before, buf[:gort.Stack(buf, true)])
			}
		})
	}
}

// TestServeHashSinkDigestsTheTrace: the hash sink's digest of a served stream
// is the digest of the oracle's trace pushed through a second one, and differs
// once two events swap.
func TestServeHashSinkDigestsTheTrace(t *testing.T) {
	const n = 300
	prog, stages := cutApp(t, "IPv4", 3)
	traffic := ipv4Traffic(n)
	seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
	if err != nil {
		t.Fatal(err)
	}
	var want, swapped runtime.HashSink
	want.Push(context.Background(), seq)
	seq[0], seq[len(seq)-1] = seq[len(seq)-1], seq[0]
	swapped.Push(context.Background(), seq)
	for _, p := range []int{1, 4} {
		got := &runtime.HashSink{}
		m, err := runtime.Serve(context.Background(), stages, netbench.NewWorld(nil), runtime.Packets(traffic),
			runtime.Config{Batch: 8, Shards: p, Sink: got})
		if err != nil {
			t.Fatal(err)
		}
		gs, ge := got.Digest()
		ws, we := want.Digest()
		if gs != ws || ge != we || m.Flushed != we {
			t.Errorf("P=%d: digest %016x over %d events (flushed %d), oracle %016x over %d", p, gs, ge, m.Flushed, ws, we)
		}
		if ss, _ := swapped.Digest(); gs == ss {
			t.Errorf("P=%d: the digest does not see order", p)
		}
	}
}

// BenchmarkLenderPull is the head's per-packet source path: a Repeat source
// armed as a serve arms it, pulled 32 packets at a time under a cancelable
// context. One op is one packet.
func BenchmarkLenderPull(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pkts := make([][]byte, 256)
	for i := range pkts {
		pkts[i] = []byte{byte(i)}
	}
	src, release := runtime.ArmLent(runtime.Repeat(pkts, b.N), ctx)
	defer release()
	dst := make([][]byte, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for got := 0; got < b.N; {
		n, err := src.Pull(ctx, dst)
		if err != nil && n == 0 {
			b.Fatal(err)
		}
		got += n
	}
}

// A per-packet source's Pull stops at a cancel between two Next calls once a
// serve has armed it; pulled directly, it sees a cancel that came before.
func TestLenderPullSeesCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	src := runtime.SourceFunc(func() ([]byte, bool) {
		if n++; n == 3 {
			cancel()
			time.Sleep(10 * time.Millisecond) // the flag is set off this goroutine
		}
		return []byte{1}, true
	})
	dst := make([][]byte, 32)
	armed, release := runtime.ArmLent(src, ctx)
	defer release()
	if got, err := armed.Pull(ctx, dst); got != 3 || !errors.Is(err, context.Canceled) {
		t.Errorf("armed: Pull = %d, %v; want 3, context.Canceled", got, err)
	}
	if got, err := src.Pull(ctx, dst); got != 0 || !errors.Is(err, context.Canceled) {
		t.Errorf("unarmed, canceled before: Pull = %d, %v; want 0, context.Canceled", got, err)
	}
}
