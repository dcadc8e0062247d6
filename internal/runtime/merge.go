package runtime

// The junction machinery of a sharded serve: sequence side-channels,
// scatter producers, the dispatcher's lane feed, fan-in mergers, and the
// per-replica sink collectors whose chunked traces are k-way merged after
// the join. The determinism
// argument lives in shard.go's package comment.

import (
	"slices"
	"sync"

	"repro/internal/interp"
)

// seqSliceLen sizes one sequence-stream slice: the lane indices of up to
// this many dispatched tokens travel in one publish.
const seqSliceLen = 256

// seqStream carries the dispatch-order lane sequence from a scatter to its
// paired fan-in. The producer appends one lane index per token in global
// iteration order and flushes before pushing the tokens themselves, so by
// the time the fan-in reads an entry, the token it names is either already
// in its lane ring or still held by the producer — never unrecorded. The
// published queue is unbounded on purpose: a flush must never block, or
// the producer could stall holding exactly the sub-batch the fan-in is
// starved on. Memory stays bounded by the tokens actually in flight (one
// id per token), and spent slices recycle through freeQ.
type seqStream struct {
	mu     sync.Mutex
	q      [][]uint16 // published, oldest first
	freeQ  [][]uint16 // spent slices handed back by the consumer
	closed bool
	notify chan struct{} // cap 1: kicks a waiting consumer

	pend []uint16 // producer side: entries not yet flushed
	cur  []uint16 // consumer side: slice being read
	pos  int
}

func newSeqStream() *seqStream {
	return &seqStream{notify: make(chan struct{}, 1)}
}

// add records that the next token (in global order) went to lane. Producer
// side only.
func (s *seqStream) add(lane int) { s.pend = append(s.pend, uint16(lane)) }

// flush publishes the pending entries. The producer must call it before
// pushing the corresponding token batches into the lane rings. Never
// blocks.
func (s *seqStream) flush() {
	if len(s.pend) == 0 {
		return
	}
	s.mu.Lock()
	s.q = append(s.q, s.pend)
	s.pend = nil
	if n := len(s.freeQ); n > 0 {
		s.pend = s.freeQ[n-1][:0]
		s.freeQ = s.freeQ[:n-1]
	}
	s.mu.Unlock()
	if s.pend == nil {
		s.pend = make([]uint16, 0, seqSliceLen)
	}
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// close flushes the tail and ends the stream. Producer side only.
func (s *seqStream) close() {
	s.flush()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// next returns the lane of the next token in global order; ok is false
// when the stream ended (producer closed and drained) or done fired.
// Consumer side only.
func (s *seqStream) next(done <-chan struct{}) (int, bool) {
	for s.pos >= len(s.cur) {
		s.mu.Lock()
		if s.cur != nil {
			s.freeQ = append(s.freeQ, s.cur)
			s.cur = nil
		}
		if len(s.q) > 0 {
			s.cur, s.pos = s.q[0], 0
			s.q[0] = nil
			s.q = s.q[1:]
			s.mu.Unlock()
			continue
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return 0, false
		}
		select {
		case <-s.notify:
		case <-done:
			return 0, false
		}
	}
	lane := int(s.cur[s.pos])
	s.pos++
	return lane, true
}

// scatterer is the producer side of a 1->P junction: the single upstream
// replica partitions each batch by the tokens' shard index and pushes one
// sub-batch per lane. When the junction feeds a downstream fan-in, the
// lane sequence is recorded (in arrival = global order) and flushed before
// any sub-batch moves.
type scatterer struct {
	rings []*tokRing
	sq    *seqStream // nil: no paired fan-in downstream
	pend  [][]*token // per-lane sub-batch scratch
}

func newScatterer(rings []*tokRing, sq *seqStream) *scatterer {
	return &scatterer{rings: rings, sq: sq, pend: make([][]*token, len(rings))}
}

// send partitions b by lane and delivers every sub-batch. Delivery cycles
// over the held lanes instead of blocking on one: with a fan-in
// downstream, the merger consumes lanes in dispatch order, so parking on
// a saturated lane while a starved lane's sub-batch sits here would
// deadlock. The overload policy is applied per lane once it stays
// saturated past the watermark (shed is rejected at validation when a
// fan-in exists). Returns false when the run was canceled mid-delivery.
func (sc *scatterer) send(e *engine, b []*token, lc *laneCtx) bool {
	for _, t := range b {
		if sc.sq != nil {
			sc.sq.add(int(t.shard))
		}
		if sc.pend[t.shard] == nil {
			sc.pend[t.shard] = e.getBatch()
		}
		sc.pend[t.shard] = append(sc.pend[t.shard], t)
	}
	b = b[:0]
	e.putBatch(b)
	if sc.sq != nil {
		sc.sq.flush()
	}

	// pend entries are nil or non-empty, and every delivery clears its own.
	held := false
	for j, p := range sc.pend {
		if p == nil {
			continue
		}
		if tryPush(sc.rings[j], p, lc.probe) {
			sc.pend[j] = nil
		} else {
			held = true
		}
	}
	if !held {
		return true
	}
	lc.probe.stalls.Add(1)
	return sc.drain(e, lc)
}

// drain waits on the held sub-batches, one pushHeld round at a time, until
// every one is delivered (or shed under OverloadShed, or the run is
// canceled). A round that times out is one tick of saturation for every lane
// still full at its end; a lane that stays full for Watermark ticks sheds its
// sub-batch.
func (sc *scatterer) drain(e *engine, lc *laneCtx) bool {
	ticks := make([]int, len(sc.pend))
	for {
		w := slices.IndexFunc(sc.pend, func(b []*token) bool { return b != nil })
		if w < 0 {
			return true
		}
		sent, canceled := e.pushHeld(sc.rings, sc.pend, w, lc.probe)
		if canceled {
			return false
		}
		if sent || e.cfg.Overload == OverloadBlock {
			continue
		}
		for j := range sc.pend {
			if sc.pend[j] == nil {
				continue
			}
			if j != w && tryPush(sc.rings[j], sc.pend[j], lc.probe) {
				sc.pend[j] = nil
				continue
			}
			if ticks[j]++; ticks[j] < e.cfg.Watermark {
				continue
			}
			// Only reachable without a fan-in downstream (validated):
			// dropping sequenced tokens would starve the merger.
			e.shed(lc, sc.pend[j])
			sc.pend[j] = nil
		}
	}
}

// pushHeld is one wait round of a 1->P junction holding batches for several
// lanes. Every pending lane but w is first offered its batch without
// blocking: a fan-in downstream consumes lanes in dispatch order, so a
// starved lane's batch must be able to leave while the producer waits on a
// saturated one — the cross-lane deadlock guard. Then the producer waits on
// lane w the ring's own way (spin, yield, park) for at most one
// overloadTick, the blocked time booked to p's transmit-side wait. Lanes
// that took their batch are cleared from pend.
func (e *engine) pushHeld(rings []*tokRing, pend [][]*token, w int, p *stageProbe) (sent, canceled bool) {
	for j := range pend {
		if j != w && len(pend[j]) > 0 && tryPush(rings[j], pend[j], p) {
			pend[j] = nil
		}
	}
	sent, canceled = rings[w].PushTimeout(pend[w], e.ictx.Done(), overloadTick, &p.txWait)
	if sent {
		p.out.Add(int64(len(pend[w])))
		pend[w] = nil
	}
	return sent, canceled
}

// close ends the junction: the sequence stream first (its tail flushed),
// then every lane ring.
func (sc *scatterer) close() {
	if sc.sq != nil {
		sc.sq.close()
	}
	for _, r := range sc.rings {
		r.Close()
	}
}

// laneFeed is the dispatcher's out-port: the source-side 1->P junction of
// a run whose first stage is replicated. Unlike a scatterer, which splits
// each batch and delivers the pieces at once, it accumulates a full batch
// per lane before delivering it, so the replicas see the configured batch
// size whatever P is — and it is lossless (pure backpressure): the
// overload policies act at the inter-stage rings. The lane sequence is
// recorded for the paired fan-in when one exists.
type laneFeed struct {
	rings []*tokRing
	sq    *seqStream // nil: no fan-in downstream
	pend  [][]*token // per-lane batch being filled
	probe *stageProbe
}

// send appends b's tokens to their lanes' pending batches, delivering each
// lane batch as it fills. Returns false when the run was canceled.
func (lf *laneFeed) send(e *engine, b []*token) bool {
	for _, t := range b {
		lane := int(t.shard)
		if lf.sq != nil {
			lf.sq.add(lane)
		}
		if lf.pend[lane] == nil {
			lf.pend[lane] = e.getBatch()
		}
		lf.pend[lane] = append(lf.pend[lane], t)
		if len(lf.pend[lane]) >= e.cfg.Batch {
			if lf.sq != nil {
				lf.sq.flush()
			}
			if !lf.flush(e, lane) {
				return false
			}
		}
	}
	e.putBatch(b)
	return true
}

// flush delivers pend[lane] into its head ring, waiting in pushHeld rounds
// when the ring is full — so the other lanes' partial batches keep leaving
// while the dispatcher waits on a saturated one.
func (lf *laneFeed) flush(e *engine, lane int) bool {
	if tryPush(lf.rings[lane], lf.pend[lane], lf.probe) {
		lf.pend[lane] = nil
		return true
	}
	lf.probe.stalls.Add(1)
	for {
		if sent, canceled := e.pushHeld(lf.rings, lf.pend, lane, lf.probe); sent || canceled {
			return sent
		}
	}
}

// close flushes the partial lane batches in one last sequenced round
// (abandoned on cancellation), then ends every lane and the sequence.
func (lf *laneFeed) close(e *engine) {
	if lf.sq != nil {
		lf.sq.flush()
	}
	for j := range lf.pend {
		if len(lf.pend[j]) > 0 && !lf.flush(e, j) {
			break
		}
	}
	for _, r := range lf.rings {
		r.Close()
	}
	if lf.sq != nil {
		lf.sq.close()
	}
}

// merger is the consumer side of a P->1 junction: the single downstream
// replica reassembles the global token order by popping exactly the lane
// the sequence stream names next. Tombstoned (dead) tokens are recycled
// here — they existed only to keep the sequence gap-free.
type merger struct {
	e     *engine
	rings []*tokRing
	sq    *seqStream
	cur   [][]*token
	pos   []int
	probe *stageProbe
}

func (e *engine) newMerger(cut int, lc *laneCtx) *merger {
	return &merger{
		e:     e,
		rings: e.rings[cut],
		sq:    e.seqs[e.plan.faninSeq[cut]],
		cur:   make([][]*token, len(e.rings[cut])),
		pos:   make([]int, len(e.rings[cut])),
		probe: lc.probe,
	}
}

// nextBatch assembles up to n live tokens in global order. more is false
// when the stream ended (or the run was canceled): process the partial
// batch, then return.
func (mg *merger) nextBatch(n int) (b []*token, more bool) {
	b = mg.e.getBatch()
	for len(b) < n {
		lane, ok := mg.sq.next(mg.e.ictx.Done())
		if !ok {
			return b, false
		}
		t := mg.pop(lane)
		if t == nil {
			return b, false
		}
		if t.dead {
			mg.e.putToken(t)
			continue
		}
		b = append(b, t)
	}
	return b, true
}

// pop takes the next token from lane, pulling a fresh batch from the lane
// ring when the current one is spent. nil means canceled (or a producer
// died and closed the ring early).
func (mg *merger) pop(lane int) *token {
	for mg.cur[lane] == nil || mg.pos[lane] >= len(mg.cur[lane]) {
		if mg.cur[lane] != nil {
			mg.e.putBatch(mg.cur[lane])
			mg.cur[lane] = nil
		}
		b, ok := mg.e.popRing(mg.rings[lane], mg.probe)
		if !ok {
			return nil
		}
		mg.cur[lane], mg.pos[lane] = b, 0
	}
	t := mg.cur[lane][mg.pos[lane]]
	mg.pos[lane]++
	return t
}

// sinkCollector accumulates one sink replica's share of the trace when the
// final segment is sharded: the replica's own chunked trace plus an
// (iteration, event-count) span index the offline merge walks. Owned by
// its sink replica's goroutine until the final join.
type sinkCollector struct {
	traceBuf
	iters  []int64
	counts []int32
}

// add appends one retired iteration's events. Iterations that emitted
// nothing need no span — the merge only orders events.
func (c *sinkCollector) add(iter int64, evs []interp.Event) {
	if len(evs) == 0 {
		return
	}
	c.iters = append(c.iters, iter)
	c.counts = append(c.counts, int32(len(evs)))
	c.append(evs)
}

// evCursor walks a sealed collector's chunks sequentially, releasing each
// chunk once it has been copied out.
type evCursor struct {
	chunks  [][]interp.Event
	ci, off int
}

// take appends the cursor's next n events to dst.
func (c *evCursor) take(n int, dst []interp.Event) []interp.Event {
	for n > 0 {
		ch := c.chunks[c.ci]
		m := len(ch) - c.off
		if m > n {
			m = n
		}
		dst = append(dst, ch[c.off:c.off+m]...)
		c.off += m
		n -= m
		if c.off == len(ch) {
			c.chunks[c.ci] = nil
			c.ci++
			c.off = 0
		}
	}
	return dst
}

// mergeShardTraces k-way merges the per-replica sink traces back into
// global iteration order — the offline half of the determinism story,
// used when the final segment is sharded and there is no live fan-in.
// Each collector's spans are already iteration-sorted (per-lane order is
// preserved end to end), so one linear min-scan per span suffices; P is
// at most MaxShards.
func mergeShardTraces(cols []*sinkCollector) []interp.Event {
	total := 0
	cur := make([]evCursor, len(cols))
	for j, c := range cols {
		cur[j] = evCursor{chunks: c.seal()}
		total += c.n
	}
	if total == 0 {
		return nil
	}
	out := make([]interp.Event, 0, total)
	idx := make([]int, len(cols))
	for {
		best := -1
		var bi int64
		for j, c := range cols {
			if idx[j] < len(c.iters) && (best < 0 || c.iters[idx[j]] < bi) {
				best, bi = j, c.iters[idx[j]]
			}
		}
		if best < 0 {
			return out
		}
		out = cur[best].take(int(cols[best].counts[idx[best]]), out)
		idx[best]++
	}
}
