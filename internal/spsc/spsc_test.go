package spsc

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestCapacityExact(t *testing.T) {
	// The buffer rounds up to a power of two internally, but the full
	// threshold is exact: a ring of capacity N accepts exactly N pushes
	// before refusing — including capacities that are not powers of two.
	for _, ask := range []int{1, 2, 3, 4, 5, 8, 9, 64, 100} {
		r := New[int](ask, WaitStrategy{})
		for i := 0; i < ask; i++ {
			if !r.TryPush(i) {
				t.Fatalf("New(%d): TryPush %d refused with %d queued", ask, i, r.Len())
			}
		}
		if r.TryPush(-1) {
			t.Fatalf("New(%d): TryPush succeeded past capacity", ask)
		}
	}
}

func TestNewPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int](0, WaitStrategy{})
}

func TestTryPushTryPopFIFO(t *testing.T) {
	r := New[int](4, WaitStrategy{})
	// Fill, observe full, drain, observe empty — twice, to cross the wrap.
	for round := 0; round < 2; round++ {
		for i := 0; i < 4; i++ {
			if !r.TryPush(round*10 + i) {
				t.Fatalf("round %d: TryPush(%d) failed with %d queued", round, i, r.Len())
			}
		}
		if r.TryPush(99) {
			t.Fatalf("round %d: TryPush succeeded on a full ring", round)
		}
		if got := r.Len(); got != 4 {
			t.Fatalf("round %d: Len() = %d, want 4", round, got)
		}
		for i := 0; i < 4; i++ {
			v, ok := r.TryPop()
			if !ok || v != round*10+i {
				t.Fatalf("round %d: TryPop() = %d,%v, want %d,true", round, v, ok, round*10+i)
			}
		}
		if _, ok := r.TryPop(); ok {
			t.Fatalf("round %d: TryPop succeeded on an empty ring", round)
		}
	}
}

func TestPopReleasesSlotReference(t *testing.T) {
	r := New[*int](2, WaitStrategy{})
	v := new(int)
	r.TryPush(v)
	r.TryPop()
	if r.slots[0] != nil {
		t.Fatal("TryPop left the slot's pointer live")
	}
}

func TestCloseDrain(t *testing.T) {
	r := New[int](4, WaitStrategy{})
	r.TryPush(1)
	r.TryPush(2)
	r.Close()
	if !r.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	// Pop drains the published entries before reporting end-of-stream.
	for want := 1; want <= 2; want++ {
		v, ok, canceled := r.Pop(nil, nil)
		if !ok || canceled || v != want {
			t.Fatalf("Pop = %d,%v,%v, want %d,true,false", v, ok, canceled, want)
		}
	}
	if _, ok, canceled := r.Pop(nil, nil); ok || canceled {
		t.Fatalf("Pop after drain = ok=%v canceled=%v, want end-of-stream", ok, canceled)
	}
}

func TestPushAfterClosePanics(t *testing.T) {
	r := New[int](2, WaitStrategy{})
	r.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("TryPush after Close did not panic")
		}
	}()
	r.TryPush(1)
}

func TestPopCancel(t *testing.T) {
	r := New[int](2, DefaultStrategy())
	done := make(chan struct{})
	got := make(chan bool, 1)
	go func() {
		_, ok, canceled := r.Pop(done, nil)
		got <- !ok && canceled
	}()
	time.Sleep(5 * time.Millisecond)
	close(done)
	select {
	case v := <-got:
		if !v {
			t.Fatal("Pop on a canceled ring did not report canceled")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pop did not observe done")
	}
}

func TestPushCancel(t *testing.T) {
	r := New[int](2, DefaultStrategy())
	r.TryPush(1)
	r.TryPush(2) // full
	done := make(chan struct{})
	got := make(chan bool, 1)
	go func() {
		ok := r.Push(3, done, nil)
		got <- !ok
	}()
	time.Sleep(5 * time.Millisecond)
	close(done)
	select {
	case v := <-got:
		if !v {
			t.Fatal("Push on a canceled ring did not report canceled")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Push did not observe done")
	}
}

// TestCloseDrainRace pins the protocol the runtime relies on: a consumer
// racing the producer's final publish+Close must still observe every
// entry. Run under -race this also checks the slot handoffs carry the
// necessary happens-before edges.
func TestCloseDrainRace(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		r := New[int](4, DefaultStrategy())
		const n = 57
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				r.Push(i, nil, nil)
			}
			r.Close()
		}()
		for want := 0; want < n; want++ {
			v, ok, canceled := r.Pop(nil, nil)
			if !ok || canceled {
				t.Fatalf("trial %d: stream ended at %d/%d (canceled=%v)", trial, want, n, canceled)
			}
			if v != want {
				t.Fatalf("trial %d: popped %d, want %d", trial, v, want)
			}
		}
		if _, ok, _ := r.Pop(nil, nil); ok {
			t.Fatalf("trial %d: extra entry after close", trial)
		}
		wg.Wait()
	}
}

// TestPingPongStress bounces batches between two goroutines through a
// pair of rings — the shape of a pipelined stage handoff — and checks
// nothing is lost, duplicated, or reordered.
func TestPingPongStress(t *testing.T) {
	const n = 20000
	fwd := New[int](8, DefaultStrategy())
	bwd := New[int](8, DefaultStrategy())
	var wc WaitCounters
	go func() {
		for i := 0; i < n; i++ {
			v, ok, _ := fwd.Pop(nil, nil)
			if !ok {
				return
			}
			bwd.Push(v*3, nil, nil)
		}
		bwd.Close()
	}()
	go func() {
		for i := 0; i < n; i++ {
			fwd.Push(i, nil, &wc)
		}
		fwd.Close()
	}()
	for i := 0; i < n; i++ {
		v, ok, canceled := bwd.Pop(nil, &wc)
		if !ok || canceled {
			t.Fatalf("stream ended early at %d/%d", i, n)
		}
		if v != i*3 {
			t.Fatalf("popped %d, want %d", v, i*3)
		}
	}
	if _, ok, _ := bwd.Pop(nil, nil); ok {
		t.Fatal("extra entry after close")
	}
}

// TestParkAllocatesNothing bounces one entry at a time between two goroutines
// through capacity-1 rings that park at once (no spin, no yield). Each round
// makes both consumers park, and the producer too when its second push finds
// the ring full, yet no round allocates: each side keeps its backstop timer
// from park to park.
func TestParkAllocatesNothing(t *testing.T) {
	fwd, bwd := New[int](1, WaitStrategy{}), New[int](1, WaitStrategy{})
	var wc WaitCounters
	go func() {
		for {
			if _, ok, _ := fwd.Pop(nil, &wc); !ok {
				return
			}
			if _, ok, _ := fwd.Pop(nil, &wc); !ok {
				return
			}
			bwd.Push(0, nil, &wc)
		}
	}()
	const rounds = 200
	allocs := testing.AllocsPerRun(rounds, func() {
		fwd.Push(1, nil, &wc)
		fwd.Push(2, nil, &wc)
		bwd.Pop(nil, &wc)
	})
	fwd.Close()
	if allocs != 0 {
		t.Errorf("%.2f allocations per park→wake round, want 0", allocs)
	}
	if parks := wc.Parks.Load(); parks < rounds {
		t.Errorf("%d parks in %d rounds: the rounds did not park", parks, rounds)
	}
}

// TestWaitCountersSplit forces one wait of each flavor and checks the
// accounting lands in the right column.
func TestWaitCountersSplit(t *testing.T) {
	// Park: the producer is slow, so the consumer must escalate past its
	// (zero) spin budget and park on the notifier.
	r := New[int](2, WaitStrategy{})
	var w WaitCounters
	go func() {
		time.Sleep(3 * time.Millisecond)
		r.TryPush(7)
	}()
	if v, ok, _ := r.Pop(nil, &w); !ok || v != 7 {
		t.Fatalf("Pop = %d,%v", v, ok)
	}
	if w.Parks.Load() != 1 || w.ParkNs.Load() <= 0 {
		t.Fatalf("slow producer: parks=%d parkNs=%d, want a recorded park", w.Parks.Load(), w.ParkNs.Load())
	}
	if w.Spins.Load() != 0 {
		t.Fatalf("slow producer: spins=%d, want 0", w.Spins.Load())
	}

	// Spin: with a generous spin budget and the value already racing in,
	// the wait should resolve without parking. The producer runs first so
	// the value is there by the time the consumer's wait loop re-checks.
	r2 := New[int](2, WaitStrategy{Spin: 1 << 20, Yield: 1 << 20})
	var w2 WaitCounters
	released := make(chan struct{})
	go func() {
		<-released
		r2.TryPush(9)
	}()
	close(released)
	if v, ok, _ := r2.Pop(nil, &w2); !ok || v != 9 {
		t.Fatalf("Pop = %d,%v", v, ok)
	}
	if got := w2.Spins.Load() + w2.Parks.Load(); got > 1 {
		t.Fatalf("double-counted wait: spins=%d parks=%d", w2.Spins.Load(), w2.Parks.Load())
	}
}

// TestLostWakeupCounted plants the event the handshake rules out and checks
// the backstop both rescues it and says so: an entry is published behind a
// parked consumer's back — cursor advanced, notifier never posted — so the
// only thing left to end the park is the 1ms backstop, which must find the
// entry, count one lost wakeup, and deliver it. An ordinary park that ends
// by a post counts none.
func TestLostWakeupCounted(t *testing.T) {
	r := New[int](1, WaitStrategy{})
	var w WaitCounters
	got := make(chan int)
	go func() {
		v, _, _ := r.Pop(nil, &w)
		got <- v
	}()
	for r.notEmpty.waiting.Load() == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	r.slots[0] = 42
	r.tail.Store(1) // publish without post: the wakeup that gets lost
	if v := <-got; v != 42 {
		t.Fatalf("backstop delivered %d, want 42", v)
	}
	if n := w.LostWakeups.Load(); n != 1 {
		t.Errorf("LostWakeups = %d after an unposted publish, want 1", n)
	}

	var tx WaitCounters
	r.TryPush(1)
	go func() {
		time.Sleep(2 * time.Millisecond)
		r.TryPop()
	}()
	if !r.Push(2, nil, &tx) {
		t.Fatal("Push canceled without a done channel")
	}
	if n := tx.LostWakeups.Load(); n != 0 {
		t.Errorf("LostWakeups = %d after a timed-out push and a posted wake, want 0", n)
	}
}

// TestAdaptiveSpinCollapses checks the budget halves after parks and
// regrows after spin successes.
func TestAdaptiveSpinCollapses(t *testing.T) {
	// Yield stays generous so that on a single-core host the producer
	// goroutine can run during the yield phase and the regrow half of the
	// test can resolve waits without parking.
	r := New[int](2, WaitStrategy{Spin: 64, Yield: 64})
	r.consSpin = 64
	// Three parked waits in a row: budget 64 -> 32 -> 16 -> 8.
	for i := 0; i < 3; i++ {
		go func() {
			time.Sleep(2 * time.Millisecond)
			r.TryPush(1)
		}()
		r.Pop(nil, nil)
	}
	if r.consSpin >= 64 {
		t.Fatalf("consSpin = %d, want collapsed below 64 after repeated parks", r.consSpin)
	}
	collapsed := r.consSpin
	// Spin-resolved waits regrow it (the value arrives immediately).
	for i := 0; i < 10; i++ {
		r.TryPush(1)
		r.Pop(nil, nil)
	}
	// Those were fast-path pops (no wait), so the budget is untouched;
	// force waits that resolve in the spin phase.
	for i := 0; i < 10; i++ {
		go r.TryPush(1)
		r.Pop(nil, nil)
	}
	if r.consSpin < collapsed {
		t.Fatalf("consSpin = %d, shrank below %d despite spin successes", r.consSpin, collapsed)
	}
}

func TestDefaultStrategySingleCore(t *testing.T) {
	// Whatever the host, the strategy must be internally consistent: a
	// park is always reachable (Yield bounded) and Spin is non-negative.
	ws := DefaultStrategy()
	if ws.Spin < 0 || ws.Yield <= 0 {
		t.Fatalf("DefaultStrategy() = %+v, want Spin >= 0 and Yield > 0", ws)
	}
}

// TestRandomizedProducerConsumerCloser drives seeded random schedules through
// the ring: the producer publishes 0..n-1 through a random mix of TryPush
// and Push, pausing at random, and closes after the last one —
// n itself is drawn from the seed, so the close lands at a random point of
// the consumer's schedule; the consumer claims through a random mix of Pop
// and TryPop. Whatever the interleaving, at capacities 1, 2 and
// 8 and whether waits spin first or park at once, the consumer must see
// exactly 0..n-1 in order, be told the stream ended only once the ring is
// closed and drained, and no park on either side may have needed the
// backstop timer to notice a publish. Run under -race by ci.sh.
func TestRandomizedProducerConsumerCloser(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	pause := func(rng *rand.Rand) {
		switch rng.Intn(32) {
		case 0:
			time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
		case 1, 2:
			runtime.Gosched()
		}
	}
	for _, capacity := range []int{1, 2, 8} {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			ws := WaitStrategy{}
			if seed%2 == 0 {
				ws = DefaultStrategy()
			}
			r := New[int](capacity, ws)
			n := rand.New(rand.NewSource(seed)).Intn(1000)
			var tx, rx WaitCounters
			go func() {
				rng := rand.New(rand.NewSource(seed ^ 0x5eed))
				for next := 0; next < n; {
					pause(rng)
					switch rng.Intn(2) {
					case 0:
						if r.TryPush(next) {
							next++
						}
					case 1:
						r.Push(next, nil, &tx)
						next++
					}
				}
				pause(rng)
				r.Close()
			}()

			rng := rand.New(rand.NewSource(seed ^ 0xc0de))
			want := 0
			check := func(v int) {
				if v != want {
					t.Fatalf("cap %d seed %d: claimed %d, want %d (of %d)", capacity, seed, v, want, n)
				}
				want++
			}
			for ended := false; !ended; {
				pause(rng)
				switch rng.Intn(2) {
				case 0:
					v, ok, canceled := r.Pop(nil, &rx)
					switch {
					case ok:
						check(v)
					case canceled:
						t.Fatalf("cap %d seed %d: Pop canceled without a done channel", capacity, seed)
					default:
						ended = true
					}
				case 1:
					if v, ok := r.TryPop(); ok {
						check(v)
					}
				}
			}
			if want != n || !r.Closed() || r.Len() != 0 {
				t.Fatalf("cap %d seed %d: stream ended after %d of %d entries (closed %v, %d still queued)",
					capacity, seed, want, n, r.Closed(), r.Len())
			}
			if lost := tx.LostWakeups.Load() + rx.LostWakeups.Load(); lost != 0 {
				t.Errorf("cap %d seed %d: %d lost wakeups (tx %d, rx %d)", capacity, seed, lost,
					tx.LostWakeups.Load(), rx.LostWakeups.Load())
			}
		}
	}
}
