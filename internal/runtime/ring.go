package runtime

// The two ends of a unit. Every inter-goroutine batch conduit in the serve
// engine — inter-stage cut rings, the dispatcher's head rings, the lanes of
// a scatter or a fan-in, the batch free ring — is a lock-free SPSC ring from
// internal/spsc, held directly: exactly one producer and one consumer per
// ring, producer-side Close as the end-of-stream signal, drain-then-exit on
// close (spsc.Ring.Pop folds the closed-and-drained re-check in), and
// teardown on a fatal error via the run's done channel on every blocking
// operation; a canceled serve stops at the head and drains. A
// unit receives through an inPort and sends through an outPort; the ports
// own the counters and spans of their side, so the unit loop itself is
// topology-blind.

import (
	"time"

	"repro/internal/costmodel"
	"repro/internal/obsv"
	"repro/internal/spsc"
)

// DefaultRingCapacity is a ring kind's default per-ring entry count:
// nearest-neighbor rings are small on-chip buffers, scratch rings are deeper.
// A Config's RingCapacity of 0 selects the nearest-neighbor one.
func DefaultRingCapacity(ch costmodel.ChannelKind) int {
	if ch == costmodel.ScratchRing {
		return 64
	}
	return 8
}

// tokRing is the one conduit type: a ring of token batches.
type tokRing = spsc.Ring[*batch]

// newRings builds n conduits of the configured capacity.
func (e *engine) newRings(n int) []*tokRing {
	rs := make([]*tokRing, n)
	for j := range rs {
		rs[j] = spsc.New[*batch](e.cfg.RingCapacity, spsc.DefaultStrategy())
	}
	return rs
}

// portKind names what a unit's port is wired to.
type portKind uint8

const (
	portSource portKind = iota // in: the packet Source (head or dispatcher)
	portRings                  // in/out: SPSC rings taken in turn
	portSink                   // out: push to the Sink and retire
)

// A rings port holds one ring at an aligned cut and P at a junction: the
// single replica in front of a replicated stage sends batch k whole to
// rings[k mod P] (a scatter), the one behind it reads batch k from the same
// lane (a fan-in). Each lane is FIFO and every unit passes on each batch it
// receives, so both ends count the same batches and the fan-in gets back the
// exact order the scatter sent.

// turn advances a rotation over n rings.
func turn(next, n int) int {
	if next++; next == n {
		return 0
	}
	return next
}

// inPort is a unit's inbound side. lc is the receiving lane: its probe
// takes the In count, the receive-side waits and the occupancy samples.
type inPort struct {
	kind  portKind
	lc    *laneCtx
	rings []*tokRing // portRings
	next  int        // portRings: the ring the next batch comes from
	iter  int64      // portSource: next iteration index to assign
}

// recv returns the unit's next batch, nil when it has none. more is false
// when the stream ended (source drained or canceled, ring closed and
// drained) or the run failed: the unit passes on the batch it was handed,
// if any, and exits.
func (in *inPort) recv(e *engine) (b *batch, more bool) {
	if in.kind == portSource {
		return e.pull(in)
	}
	b, more = e.popRing(in.rings[in.next], in.lc.probe)
	in.next = turn(in.next, len(in.rings))
	in.lc.probe.in.Add(int64(b.size()))
	return b, more
}

// popRing blocks for the next batch on r, booking the blocked time to p's
// receive-side wait columns and sampling the occupancy left behind. ok is
// false when the ring is closed and drained or the run failed.
func (e *engine) popRing(r *tokRing, p *stageProbe) (b *batch, ok bool) {
	if b, ok, _ = r.Pop(e.ictx.Done(), &p.rxWait); ok {
		p.occSum.Add(int64(r.Len()))
		p.occSamples.Add(1)
	}
	return b, ok
}

// pull is the source in-port: it paces the pipeline with one Pull per
// batch, closing the batch with whatever the Source had ready, and assigns
// each packet its iteration index — the key every fault trigger and record
// is expressed in — and its token. The In counter tallies every packet
// pulled, which is the total the FaultReport ledger is reconciled against.
// Any error ends the stream after the packets that came with it, and is kept
// for finish to judge. A pull that got no packet returns no batch.
func (e *engine) pull(in *inPort) (b *batch, more bool) {
	if e.stop.Err() != nil {
		return nil, false
	}
	n, err := e.src.Pull(e.stop, e.pkts)
	e.srcErr, more = err, err == nil
	if n == 0 {
		return nil, more
	}
	in.lc.probe.in.Add(int64(n))
	b = e.takeBatch()
	b.toks = b.toks[:n]
	for i, t := range b.toks {
		t.iter = in.iter
		in.iter++
		t.ctx.Pending, t.ctx.HasPending, t.ctx.PendingOwned = e.pkts[i], true, e.owned
	}
	return b, more
}

// outPort is a unit's outbound side. lc is the sending lane — the unit's
// stage, or the dispatcher's own lane: its probe takes the Out
// count, the stalls and the transmit-side waits.
type outPort struct {
	kind  portKind
	lc    *laneCtx
	rings []*tokRing // portRings
	next  int        // portRings: the ring the next batch goes to
}

// send hands a batch downstream, with the transmit-phase span when span is
// set: a stage's unit under tracing, with tokens to key the span by. It
// returns false when the run was canceled mid-wait or the sink failed. The
// sink's time is booked on the probe, not as a span (a batch's residence
// window still closes at its last stage's exec).
func (o *outPort) send(e *engine, b *batch, span bool) bool {
	if o.kind == portSink {
		return e.retire(b, o.lc)
	}
	r := o.rings[o.next]
	o.next = turn(o.next, len(o.rings))
	if !span {
		return e.sendRing(r, b, o.lc)
	}
	// Capture before sending: the batch is the consumer's once sent.
	iter, n := b.toks[0].iter, len(b.toks)
	start := time.Now()
	ok := e.sendRing(r, b, o.lc)
	e.span(o.lc.num, iter, n, obsv.PhaseTx, start, time.Since(start))
	return ok
}

// close relinquishes the port: the producer owns its rings, so ring
// closure is the end-of-stream signal downstream.
func (o *outPort) close() {
	for _, r := range o.rings {
		r.Close()
	}
}

// sendRing forwards a batch on out, counting a stall when the ring is full
// and waiting for space: a full ring is backpressure, never a loss. It
// returns false when the run was canceled mid-wait.
func (e *engine) sendRing(out *tokRing, b *batch, lc *laneCtx) bool {
	p, n := lc.probe, int64(len(b.toks)) // the consumer owns b once it is in the ring
	if !out.TryPush(b) {
		p.stalls.Add(1)
		if !out.Push(b, e.ictx.Done(), &p.txWait) {
			return false
		}
	}
	p.out.Add(n)
	return true
}
