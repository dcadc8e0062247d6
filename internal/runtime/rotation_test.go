package runtime

// Replicas take whole batches in turn: a batch the source hands over goes
// downstream at once, whatever the other lanes hold, and load spreads over
// the replicas by count, not by what the packets contain.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/netbench"
)

// countSink counts the packets that reached it: one EvSend or EvDrop each.
type countSink struct{ n atomic.Int64 }

func (s *countSink) Push(_ context.Context, evs []interp.Event) error {
	for _, ev := range evs {
		if ev.Kind == interp.EvSend || ev.Kind == interp.EvDrop {
			s.n.Add(1)
		}
	}
	return nil
}

func (s *countSink) Close() (int64, error) { return s.n.Load(), nil }

// TestServeShardedQuietSourceAndBalance serves IPv4 cut at D=2 from a source
// that hands over five full batches and then goes quiet: every packet must
// reach the sink within 300 ms, before the cancel that ends the source. Then
// 64 batches of one repeated packet at P=4 must spread over the stage-1
// replicas to within one batch of an even share.
func TestServeShardedQuietSourceAndBalance(t *testing.T) {
	_, stages, _ := ipv4Stages(t, 2)
	pps, _ := netbench.ByName("IPv4")
	for _, p := range []int{2, 4} {
		for _, batch := range []int{8, 32} {
			t.Run(fmt.Sprintf("quiet/P=%d/batch=%d", p, batch), func(t *testing.T) {
				want := int64(5 * batch)
				traffic := pps.Traffic(int(want))
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				next := 0
				src := SourceFunc(func() ([]byte, bool) {
					if next < len(traffic) {
						next++
						return traffic[next-1], true
					}
					<-ctx.Done()
					return nil, false
				})
				sink := &countSink{}
				done := make(chan error, 1)
				go func() {
					_, err := Serve(ctx, stages, netbench.NewWorld(nil), src, Config{Batch: batch, Shards: p, Sink: sink})
					done <- err
				}()
				deadline := time.Now().Add(300 * time.Millisecond)
				for sink.n.Load() < want && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				got := sink.n.Load()
				cancel()
				<-done
				if got != want {
					t.Errorf("%d of %d packets stranded after 300 ms of a quiet source", want-got, want)
				}
			})
		}
	}
	t.Run("balance/P=4", func(t *testing.T) {
		const p, batch = 4, 8
		n := 64 * batch
		var live *Live
		cfg := Config{Batch: batch, Shards: p, Sink: Discard(), OnLive: func(l *Live) { live = l }}
		if _, err := Serve(context.Background(), stages, netbench.NewWorld(nil), Repeat(pps.Traffic(1), n), cfg); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < p; j++ {
			if in := live.probe(0, j).in.Load(); in < int64(n/p-batch) || in > int64(n/p+batch) {
				t.Errorf("stage 1 replica %d took %d packets, want %d±%d", j, in, n/p, batch)
			}
		}
	})
}
