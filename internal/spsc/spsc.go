// Package spsc is a lock-free single-producer/single-consumer ring — the
// serve runtime's replacement for Go channels on inter-stage handoffs.
// Where a buffered channel pays a mutex acquisition and (when a side
// blocks) a scheduler park/unpark on every operation, this ring moves one
// entry for two uncontended atomic operations: the producer publishes with
// a release store of its tail cursor, the consumer claims with a release
// store of its head cursor, and each side caches the other's cursor so
// the shared line is only re-read when the cached view says the ring is
// full (or empty). The serve runtime amortizes further by making each entry
// a whole batch: one publish moves every packet in it.
//
// The slot buffer is rounded up to a power of two so slot indexing is a
// mask, but the ring enforces the *requested* capacity exactly: a ring
// built for N entries reports full at N queued, never at the rounded
// buffer size: rounding the visible capacity would move the saturation
// point a backpressured caller sees. The head and tail cursors live on
// separate cache lines (as do the two park notifiers), so the producer and
// consumer never false-share.
//
// Blocking operations take a pluggable WaitStrategy — adaptive spin, then
// runtime.Gosched, then park on a futex-style notifier (an atomic waiting
// flag paired with a capacity-1 wake channel). The spin budget adapts:
// each wait that resolves while spinning grows the budget toward
// Strategy.Spin, each wait that had to park halves it, and on a
// single-core host the spin phase is skipped entirely (the peer cannot
// make progress until this goroutine yields). Every blocking operation
// also selects on a caller-supplied done channel, so context cancellation
// unblocks a parked stage exactly as it unblocks a channel select.
//
// Close/drain protocol: the producer calls Close after its final Push;
// the consumer keeps popping until TryPop fails *and* Closed reports
// true, then re-checks once more — Close's store is sequenced after the
// final publish, so a consumer that observed closed is guaranteed to
// observe every published entry on that re-check (the package test
// TestCloseDrainRace exercises this under -race). Pop folds the protocol
// in: it returns ok=false only when the ring is closed and drained.
//
// The memory-model argument for why the wakeup handshake cannot lose a
// wake lives in DESIGN.md §7.2; WaitCounters.LostWakeups counts the
// backstop expiries that would contradict it.
package spsc

import (
	"runtime"
	"sync/atomic"
	"time"
)

// cacheLine is the padding quantum separating the producer's, the
// consumer's, and the shared fields. 64 bytes covers x86-64 and most
// arm64 parts; a 128-byte-line host wastes nothing but a few bytes.
const cacheLine = 64

// WaitStrategy bounds the phases a blocking ring operation moves through
// before parking: up to Spin busy re-checks of the peer's cursor, then up
// to Yield rounds of runtime.Gosched, then a park on the ring's notifier.
// The zero value parks immediately (no spin, no yield) — the right
// strategy when the host is oversubscribed.
type WaitStrategy struct {
	// Spin is the adaptive spin ceiling: the budget actually spent starts
	// here and is halved every time a wait ends in a park, restored
	// multiplicatively while waits keep resolving in the spin phase.
	Spin int
	// Yield is how many runtime.Gosched rounds follow a fruitless spin
	// phase before the goroutine parks.
	Yield int
}

// DefaultStrategy returns the wait strategy the serve runtime uses: a
// short adaptive spin and a few scheduler yields on multi-core hosts; on
// a single-core host the spin phase is zero, because busy-waiting only
// steals the timeslice the peer needs to make progress.
func DefaultStrategy() WaitStrategy {
	if runtime.GOMAXPROCS(0) <= 1 {
		return WaitStrategy{Spin: 0, Yield: 4}
	}
	return WaitStrategy{Spin: 128, Yield: 4}
}

// WaitCounters accumulates where a ring side's blocked time went: waits
// that resolved while spinning or yielding (Spins/SpinNs) versus waits
// that parked on the notifier (Parks/ParkNs). All fields are atomics so a
// mid-run snapshot is race-free against the single writer; the serve
// runtime embeds one per probe direction and surfaces the split through
// StageStats. A nil *WaitCounters disables the accounting (and its two
// clock reads per blocked wait).
type WaitCounters struct {
	// Spins counts blocked waits that resolved in the spin/yield phase;
	// SpinNs is the time those waits burned.
	Spins, SpinNs atomic.Int64
	// Parks counts blocked waits that escalated to a notifier park;
	// ParkNs is the time from first blocking to the wake, spin phase
	// included once a park happened.
	Parks, ParkNs atomic.Int64
	// LostWakeups counts parks that ended by the backstop timer with the
	// awaited condition already true and the park announcement still
	// standing: the peer published without seeing the waiter. The handshake
	// makes that impossible, so anything but zero is a protocol bug the
	// backstop turned into a millisecond of latency.
	LostWakeups atomic.Int64
}

// Spun records a wait of duration d that resolved without parking. Safe
// on a nil receiver (accounting disabled).
func (w *WaitCounters) Spun(d time.Duration) {
	if w == nil {
		return
	}
	w.Spins.Add(1)
	w.SpinNs.Add(int64(d))
}

// Parked records a wait of duration d that escalated to a park. Safe on a
// nil receiver.
func (w *WaitCounters) Parked(d time.Duration) {
	if w == nil {
		return
	}
	w.Parks.Add(1)
	w.ParkNs.Add(int64(d))
}

// lostWakeup records one backstop expiry that found its condition already
// true. Safe on a nil receiver.
func (w *WaitCounters) lostWakeup() {
	if w != nil {
		w.LostWakeups.Add(1)
	}
}

// notifier is the futex-style park/wake handshake: waiting is the "I am
// about to sleep" flag, wake the capacity-1 token channel the sleeper
// selects on. The waiter stores waiting=1 and then re-checks the ring
// condition before blocking; the waker publishes its cursor and then
// loads waiting. Both orders are seq-cst, so either the waker observes
// the flag (and posts a token) or the waiter's re-check observes the
// publish — a lost wakeup would need both loads to happen before both
// stores, which no interleaving of two seq-cst orders allows.
type notifier struct {
	waiting atomic.Int32
	wake    chan struct{}
}

// post wakes a parked peer if one announced itself. The Swap (rather
// than Load+Store) makes concurrent posts idempotent: only one of them
// delivers a token for a given announcement.
func (n *notifier) post() {
	if n.waiting.Load() == 0 {
		return
	}
	if n.waiting.Swap(0) == 1 {
		select {
		case n.wake <- struct{}{}:
		default:
		}
	}
}

// parkBackstop bounds one notifier park. The handshake argument above
// says a wake can never be lost, so this timer should never be the thing
// that unblocks a healthy ring — it is defense in depth that turns a
// latent protocol bug into 1ms of extra latency instead of a deadlocked
// pipeline, and every time it is, WaitCounters.LostWakeups says so.
const parkBackstop = time.Millisecond

// lateGrace bounds how long a backstop expiry waits for the wake of a peer
// that published but has not yet posted — one descheduled by the host
// between the two — before counting a lost wakeup. The late post ends the
// wait as soon as it runs, so only a wakeup that is really lost waits it out.
const lateGrace = 20 * time.Millisecond

// Ring is the lock-free SPSC ring. The producer-side methods must be called
// from one goroutine at a time, and the consumer-side methods from one
// goroutine at a time; the two sides need no coordination with each other.
// The zero value is not usable — construct with New.
type Ring[T any] struct {
	slots []T
	mask  uint64
	cap   uint64 // requested capacity: the exact full threshold
	ws    WaitStrategy

	_          [cacheLine]byte
	head       atomic.Uint64 // next slot to pop; consumer writes, producer reads
	cachedTail uint64        // consumer's view of tail
	consSpin   int32         // consumer's adaptive spin budget
	consTimer  *time.Timer   // consumer's park backstop, made at its first park
	_          [cacheLine]byte
	tail       atomic.Uint64 // next slot to push; producer writes, consumer reads
	cachedHead uint64        // producer's view of head
	prodSpin   int32         // producer's adaptive spin budget
	prodTimer  *time.Timer   // producer's park backstop, made at its first park
	_          [cacheLine]byte
	closed     atomic.Bool
	_          [cacheLine]byte
	notEmpty   notifier // consumer parks here; producer posts
	_          [cacheLine]byte
	notFull    notifier // producer parks here; consumer posts
}

// New builds a ring holding exactly capacity entries before reporting
// full. The backing buffer is the next power of two (minimum 2) so slot
// indexing stays a mask, but the surplus slots are never used — full
// means capacity queued, so backpressure trips at the same point as a
// channel of the same capacity. Panics on capacity < 1 — rings are sized
// at configuration validation time, not on the hot path.
func New[T any](capacity int, ws WaitStrategy) *Ring[T] {
	if capacity < 1 {
		panic("spsc: capacity must be at least 1")
	}
	n := uint64(2)
	for n < uint64(capacity) {
		n <<= 1
	}
	r := &Ring[T]{
		slots: make([]T, n),
		mask:  n - 1,
		cap:   uint64(capacity),
		ws:    ws,
	}
	r.consSpin = int32(ws.Spin)
	r.prodSpin = int32(ws.Spin)
	r.notEmpty.wake = make(chan struct{}, 1)
	r.notFull.wake = make(chan struct{}, 1)
	return r
}

// Len is the number of entries currently queued. Either side (or a
// snapshotting observer) may call it; the value is naturally racy while
// the ring is moving.
func (r *Ring[T]) Len() int { return int(r.tail.Load() - r.head.Load()) }

// Closed reports whether the producer has closed the ring. Entries
// published before Close may still be queued; drain with TryPop until it
// fails again after Closed returned true.
func (r *Ring[T]) Closed() bool { return r.closed.Load() }

// Close marks the stream ended. Producer side only; Push after Close is
// a protocol violation (it panics). Close wakes a parked consumer so the
// drain protocol finishes promptly.
func (r *Ring[T]) Close() {
	r.closed.Store(true)
	r.notEmpty.post()
}

// TryPush publishes v without blocking; false means the ring is full.
// Producer side only.
func (r *Ring[T]) TryPush(v T) bool {
	if r.closed.Load() {
		panic("spsc: Push after Close")
	}
	t := r.tail.Load()
	if t-r.cachedHead >= r.cap {
		r.cachedHead = r.head.Load()
		if t-r.cachedHead >= r.cap {
			return false
		}
	}
	r.slots[t&r.mask] = v
	r.tail.Store(t + 1)
	r.notEmpty.post()
	return true
}

// TryPop claims the oldest entry without blocking; ok is false when the
// ring is empty (closed or not — pair with Closed for the drain
// protocol, or use Pop which folds it in). Consumer side only.
func (r *Ring[T]) TryPop() (v T, ok bool) {
	h := r.head.Load()
	if h == r.cachedTail {
		r.cachedTail = r.tail.Load()
		if h == r.cachedTail {
			return v, false
		}
	}
	v = r.slots[h&r.mask]
	var zero T
	r.slots[h&r.mask] = zero // drop the ring's reference for the GC
	r.head.Store(h + 1)
	r.notFull.post()
	return v, true
}

// Push blocks until v is published or done fires (returns false). The
// wait escalates spin → Gosched → park per the ring's WaitStrategy;
// blocked time is split into w's spin/park columns. Producer side only.
func (r *Ring[T]) Push(v T, done <-chan struct{}, w *WaitCounters) bool {
	if r.TryPush(v) {
		return true
	}
	start := time.Now()
	spin := int(r.prodSpin)
	parked := false
	yields := 0
	for {
		if r.TryPush(v) {
			r.settle(&r.prodSpin, parked, start, w)
			return true
		}
		switch {
		case spin > 0:
			spin--
		case !parked && yields < r.ws.Yield:
			yields++
			runtime.Gosched()
		default:
			parked = true
			if !r.park(&r.notFull, done, &r.prodTimer, w, func() bool {
				return r.tail.Load()-r.head.Load() < r.cap
			}) {
				r.settle(&r.prodSpin, parked, start, w)
				return false
			}
		}
	}
}

// Pop blocks until an entry is claimed (v, true, false), the ring is
// closed and drained (zero, false, false), or done fires (zero, false,
// true). Consumer side only.
func (r *Ring[T]) Pop(done <-chan struct{}, w *WaitCounters) (v T, ok, canceled bool) {
	if v, ok = r.TryPop(); ok {
		return v, true, false
	}
	start := time.Now()
	spin := int(r.consSpin)
	parked := false
	yields := 0
	for {
		if v, ok = r.TryPop(); ok {
			r.settle(&r.consSpin, parked, start, w)
			return v, true, false
		}
		if r.closed.Load() {
			// Close is sequenced after the final publish, so one more
			// claim attempt observes everything the producer sent.
			v, ok = r.TryPop()
			r.settle(&r.consSpin, parked, start, w)
			return v, ok, false
		}
		switch {
		case spin > 0:
			spin--
		case !parked && yields < r.ws.Yield:
			yields++
			runtime.Gosched()
		default:
			parked = true
			if !r.park(&r.notEmpty, done, &r.consTimer, w, func() bool {
				return r.head.Load() != r.tail.Load() || r.closed.Load()
			}) {
				r.settle(&r.consSpin, parked, start, w)
				return v, false, true
			}
		}
	}
}

// settle books one blocked wait in w and adapts the waiting side's spin
// budget: a wait that parked halves it, one that resolved while spinning
// regrows it toward Strategy.Spin.
func (r *Ring[T]) settle(budget *int32, parked bool, start time.Time, w *WaitCounters) {
	d := time.Since(start)
	if parked {
		w.Parked(d)
		if *budget > 1 {
			*budget /= 2
		}
		return
	}
	w.Spun(d)
	*budget = min(*budget*2+1, int32(r.ws.Spin))
}

// park blocks on n until posted, done fires (returns false), or the
// backstop elapses. ready is re-checked between announcing and blocking —
// the half of the handshake that makes lost wakeups impossible; a backstop
// expiry that finds ready true with the announcement never taken is counted
// in w as the lost wakeup that argument rules out.
//
// timer is the parking side's own backstop, kept across parks so a park
// allocates nothing. Every park leaves it stopped with its channel empty:
// under the pre-1.23 timer rules go.mod selects, a tick that fired while the
// park ended another way waits in the channel until read, and would end the
// next park early if it were not drained here.
func (r *Ring[T]) park(n *notifier, done <-chan struct{}, timer **time.Timer, w *WaitCounters, ready func() bool) bool {
	n.waiting.Store(1)
	if ready() {
		// The peer published between our last check and the announcement;
		// it may or may not have seen the flag. Withdraw and drain any
		// token so a stale wake cannot alias a future park.
		n.waiting.Store(0)
		select {
		case <-n.wake:
		default:
		}
		return true
	}
	t := *timer
	if t == nil {
		t = time.NewTimer(parkBackstop)
		*timer = t
	} else {
		t.Reset(parkBackstop)
	}
	disarm := func() {
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
	}
	select {
	case <-n.wake:
		disarm()
		return true
	case <-done:
		disarm()
		n.waiting.Store(0)
		return false
	case <-t.C:
		if ready() {
			// What the waiter wanted is there, yet the backstop is what ended
			// the park. A peer preempted between its publish and its post
			// still holds the wake: its post takes the announcement and sends
			// the token, so the waiter waits up to lateGrace for it before the
			// wakeup is called lost.
			t.Reset(lateGrace)
			select {
			case <-n.wake:
				disarm()
				return true
			case <-done:
				disarm()
				n.waiting.Store(0)
				return false
			case <-t.C:
			}
			if n.waiting.Swap(0) == 1 {
				w.lostWakeup()
			}
			return true
		}
		n.waiting.Store(0)
		return true
	}
}
