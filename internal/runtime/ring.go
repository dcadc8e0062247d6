package runtime

// The two ends of a unit. Every inter-goroutine batch conduit in the serve
// engine — inter-stage cut rings, the dispatcher's head rings, scatter and
// fan-in lane rings, the batch free ring — is a lock-free SPSC ring from
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
	portSource  portKind = iota // in: the packet Source (head or dispatcher)
	portRing                    // in/out: one SPSC ring (aligned cut, head ring, lane into a fan-in)
	portMerge                   // in: fan-in merger over P lane rings
	portScatter                 // out: 1 -> P scatter junction (the dispatcher's lane feed is one)
	portSink                    // out: push to the Sink and retire
)

// inPort is a unit's inbound side. lc is the receiving lane: its probe
// takes the In count, the receive-side waits and the occupancy samples.
type inPort struct {
	kind portKind
	lc   *laneCtx
	ring *tokRing // portRing
	mg   *merger  // portMerge
	iter int64    // portSource: next iteration index to assign
}

// recv returns the unit's next batch. more is false when the stream ended
// (source drained or canceled, ring closed and drained) or the run failed:
// the unit processes the batch it was handed, if any, and exits.
func (in *inPort) recv(e *engine) (b *batch, more bool) {
	switch in.kind {
	case portSource:
		return e.pull(in)
	case portMerge:
		b, more = in.mg.nextBatch(e.cfg.Batch)
	default:
		b, more = e.popRing(in.ring, in.lc.probe)
	}
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

// pull is the source in-port: it paces the pipeline by pulling up to one
// batch of packets from the Source, assigning each its iteration index —
// the key every fault trigger and record is expressed in — and building
// its token. The In counter tallies every packet pulled, which is the total
// the FaultReport ledger is reconciled against. Under sharding the token's
// lane is stamped from the flow hash now, before any stage body can
// rewrite the packet bytes.
func (e *engine) pull(in *inPort) (b *batch, more bool) {
	select {
	case <-e.stop.Done():
		return nil, false
	default:
	}
	p := in.lc.probe
	sharded := e.plan.sharded()
	b, more = e.takeBatch(), true
	n := 0
	for ; n < e.cfg.Batch; n++ {
		pkt, ok := e.src.Next()
		if !ok {
			more = false
			break
		}
		p.in.Add(1)
		t := e.tokenAt(b, n)
		t.iter = in.iter
		in.iter++
		t.ctx.Pending, t.ctx.HasPending, t.ctx.PendingOwned = pkt, true, e.owned
		if sharded {
			t.shard = int32(shardOf(e.shardKey(pkt), e.plan.p))
		}
	}
	e.trim(b, n)
	return b, more
}

// outPort is a unit's outbound side. lc is the sending lane — the unit's
// stage, or the dispatcher's own lane: its probe takes the Out
// count, the stalls and the transmit-side waits.
type outPort struct {
	kind portKind
	lc   *laneCtx
	ring *tokRing   // portRing
	sc   *scatterer // portScatter
}

// send hands a non-empty batch downstream, with the transmit-phase span
// when span is set: a stage's unit under tracing. It returns false when the
// run was canceled mid-wait or the sink failed. The sink's time is booked on
// the probe, not as a span (a batch's residence window still closes at its
// last stage's exec), and the dispatcher's pulled batches are re-split by
// lane — their keys name no downstream batch — so neither records one.
func (o *outPort) send(e *engine, b *batch, span bool) bool {
	if o.kind == portSink {
		return e.retire(b, o.lc)
	}
	if !span {
		return o.deliver(e, b)
	}
	// Capture before sending: the batch is the consumer's once sent.
	iter, n := b.toks[0].iter, len(b.toks)
	start := time.Now()
	ok := o.deliver(e, b)
	e.span(o.lc.num, iter, n, obsv.PhaseTx, start, time.Since(start))
	return ok
}

func (o *outPort) deliver(e *engine, b *batch) bool {
	if o.kind == portScatter {
		return o.sc.send(e, b)
	}
	return e.sendRing(o.ring, b, o.lc)
}

// close relinquishes the port: the producer owns its ring(s), so ring
// closure is the end-of-stream signal downstream.
func (o *outPort) close(e *engine) {
	switch o.kind {
	case portRing:
		o.ring.Close()
	case portScatter:
		o.sc.close(e)
	}
}

// tryPush is the non-blocking ring put; on success the batch (and its
// accounting) belongs to the consumer.
func tryPush(out *tokRing, b *batch, p *stageProbe) bool {
	n := int64(len(b.toks)) // the consumer owns b once it is in the ring
	if out.TryPush(b) {
		p.out.Add(n)
		return true
	}
	return false
}

// sendRing forwards a batch on out, counting a stall when the ring is full
// and waiting for space: a full ring is backpressure, never a loss. It
// returns false when the run was canceled mid-wait.
func (e *engine) sendRing(out *tokRing, b *batch, lc *laneCtx) bool {
	p, n := lc.probe, int64(len(b.toks))
	if tryPush(out, b, p) {
		return true
	}
	p.stalls.Add(1)
	if !out.Push(b, e.ictx.Done(), &p.txWait) {
		return false
	}
	p.out.Add(n)
	return true
}
