package runtime

// The junction machinery of a sharded serve: sequence side-channels, the
// scatter that opens a sharded segment (the dispatcher's lane feed is one)
// and the fan-in merger that closes it — in front of an unreplicated stage
// or of the sink unit. The determinism argument lives in shard.go's package
// comment.

import (
	"sync"
	"time"
)

// seqSliceLen sizes one sequence-stream slice: the lane indices of up to
// this many dispatched tokens travel in one publish.
const seqSliceLen = 256

// seqStream carries the dispatch-order lane sequence from a scatter to its
// paired fan-in. The producer appends one lane index per token in global
// iteration order and flushes before pushing the tokens themselves, so by
// the time the fan-in reads an entry, the token it names is either already
// in its lane ring or still held by the producer — never unrecorded.
//
// Bound: an entry is published for a token the scatter has accepted and is
// consumed when the fan-in pops that token, so the queue never holds more
// entries than the segment holds tokens: per lane, the batch pending at the
// scatter, then a ring (which blocks) and a batch in hand for each of the
// segment's stages and for the fan-in. With the slice the fan-in is
// reading, counted until it is spent, that is at most lanes ×
// ((stages+1) × (ring capacity+1) + 2) × batch entries, fixed by the
// configuration (peak records the high-water mark;
// TestSeqStreamBoundedUnderSkew holds it to that). Because the bound is the
// rings' backpressure, the queue needs none of its own and a flush never
// blocks — it must not: the producer would stall holding exactly the batch
// the fan-in is starved on. Spent slices recycle through freeQ.
type seqStream struct {
	mu     sync.Mutex
	q      [][]uint16 // published, oldest first
	freeQ  [][]uint16 // spent slices handed back by the consumer
	queued int        // entries published and not yet taken by the consumer
	peak   int        // the most queued ever was
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
	s.queued += len(s.pend)
	s.peak = max(s.peak, s.queued)
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
			s.queued -= len(s.cur)
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

// ready reports whether next would return without waiting. Consumer side only.
func (s *seqStream) ready() bool {
	if s.pos < len(s.cur) {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.q) > 0 || s.closed
}

// scatterer is the producer side of a 1->P junction, where a sharded segment
// opens: the dispatcher's lane feed in front of a replicated first stage, or
// the out-port of an unreplicated stage whose successor is replicated. It
// appends each token to its lane's pending batch and records the lane — in
// arrival, which is global, order — for the fan-in that closes the segment;
// recorded entries are flushed before any batch they name moves. The
// dispatcher fills a whole batch per lane before delivering it (fill is the
// configured batch), so the replicas see the configured batch size whatever
// P is; a mid-pipeline scatter delivers what each send split off at once
// (fill 0). A recorded token must reach the fan-in — a hole would stall the
// merge on a lane that went quiet — so a full lane blocks the scatter.
type scatterer struct {
	rings []*tokRing
	sq    *seqStream
	pend  []*batch // per-lane batch being filled
	fill  int
	lc    *laneCtx // the sending lane: the dispatcher's, or the scattering stage's
}

func newScatterer(rings []*tokRing, sq *seqStream, fill int, lc *laneCtx) *scatterer {
	return &scatterer{rings: rings, sq: sq, pend: make([]*batch, len(rings)), fill: fill, lc: lc}
}

// send records b's tokens and appends them to their lanes, each with its
// row, delivering lane batches as they fill (or all of them, at a scatter).
// Returns false when the run was canceled.
func (sc *scatterer) send(e *engine, b *batch) bool {
	for r, t := range b.toks {
		j := int(t.shard)
		sc.sq.add(j)
		if sc.pend[j] == nil {
			sc.pend[j] = e.getBatch()
		}
		p := sc.pend[j]
		if b.in != nil {
			p.in.MoveRow(len(p.toks), b.in, r)
		}
		p.toks = append(p.toks, t)
		if sc.fill > 0 && len(p.toks) >= sc.fill && !sc.deliver(e, j) {
			return false
		}
	}
	e.putBatch(b)
	if sc.fill > 0 {
		return true
	}
	for j := range sc.pend {
		if sc.pend[j].size() > 0 && !sc.deliver(e, j) {
			return false
		}
	}
	return true
}

// offer is the non-blocking put of lane j's pending batch.
func (sc *scatterer) offer(j int) bool {
	if !tryPush(sc.rings[j], sc.pend[j], sc.lc.probe) {
		return false
	}
	sc.pend[j] = nil
	return true
}

// overloadTick bounds one round of deliver's wait on a saturated lane.
const overloadTick = 200 * time.Microsecond

// deliver hands lane j's pending batch to its ring, waiting in rounds while
// the ring is full. Each round first offers every other pending lane its
// batch, partial or not, without blocking — the fan-in consumes lanes in
// dispatch order, so a starved lane's batch must be able to leave while the
// producer waits on a saturated one: the cross-lane deadlock guard — then
// waits on lane j the ring's own way (spin, yield, park) for at most one
// overloadTick, booked as transmit-side wait. The rounds go on until the
// batch has left. False means the run was canceled.
func (sc *scatterer) deliver(e *engine, j int) bool {
	sc.sq.flush()
	if sc.offer(j) {
		return true
	}
	p, n := sc.lc.probe, int64(len(sc.pend[j].toks))
	p.stalls.Add(1)
	for {
		for i := range sc.pend {
			if i != j && sc.pend[i].size() > 0 {
				sc.offer(i)
			}
		}
		sent, canceled := sc.rings[j].PushTimeout(sc.pend[j], e.ictx.Done(), overloadTick, &p.txWait)
		if sent {
			p.out.Add(n)
			sc.pend[j] = nil
			return true
		}
		if canceled {
			return false
		}
	}
}

// close delivers the partial batches still pending — what was recorded must
// arrive (abandoned on cancellation) — then ends every lane and the
// sequence.
func (sc *scatterer) close(e *engine) {
	for j := 0; j < len(sc.pend); {
		if sc.pend[j].size() == 0 {
			j++
		} else if !sc.deliver(e, j) {
			break
		}
	}
	for _, r := range sc.rings {
		r.Close()
	}
	sc.sq.close()
}

// merger is the consumer side of a P->1 junction: the single downstream
// replica reassembles the global token order by popping exactly the lane
// the sequence stream names next, and each token's row with it. Tombstoned
// (dead) tokens are recycled here — they existed only to keep the sequence
// gap-free.
type merger struct {
	e     *engine
	rings []*tokRing
	sq    *seqStream
	cur   []*batch
	pos   []int
	probe *stageProbe
}

func (e *engine) newMerger(cut int, lc *laneCtx) *merger {
	return &merger{
		e:     e,
		rings: e.rings[cut],
		sq:    e.seqs[e.plan.seqAt[cut+1]],
		cur:   make([]*batch, len(e.rings[cut])),
		pos:   make([]int, len(e.rings[cut])),
		probe: lc.probe,
	}
}

// nextBatch assembles up to n live tokens in global order, fewer when the
// sequence runs dry with some in hand. more is false when the stream ended
// (or the run was canceled): process the partial batch, then return.
func (mg *merger) nextBatch(n int) (b *batch, more bool) {
	b = mg.e.getBatch()
	for len(b.toks) < n {
		if len(b.toks) > 0 && !mg.sq.ready() {
			return b, true // nothing more was dispatched: do not sit on retired work
		}
		lane, ok := mg.sq.next(mg.e.ictx.Done())
		if !ok {
			return b, false
		}
		src, r := mg.pop(lane)
		if src == nil {
			return b, false
		}
		t := src.toks[r]
		if t.dead {
			mg.e.putToken(t)
			continue
		}
		if b.in != nil {
			b.in.MoveRow(len(b.toks), src.in, r)
		}
		b.toks = append(b.toks, t)
	}
	return b, true
}

// pop takes the next token from lane, pulling a fresh batch from the lane
// ring when the current one is spent, and returns the batch and the token's
// row in it. A nil batch means canceled (or a producer died and closed the
// ring early).
func (mg *merger) pop(lane int) (*batch, int) {
	for mg.cur[lane] == nil || mg.pos[lane] >= len(mg.cur[lane].toks) {
		if mg.cur[lane] != nil {
			mg.e.putBatch(mg.cur[lane])
			mg.cur[lane] = nil
		}
		b, ok := mg.e.popRing(mg.rings[lane], mg.probe)
		if !ok {
			return nil, 0
		}
		mg.cur[lane], mg.pos[lane] = b, 0
	}
	mg.pos[lane]++
	return mg.cur[lane], mg.pos[lane] - 1
}
