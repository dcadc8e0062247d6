package runtime

import (
	"context"
	"hash/maphash"

	"repro/internal/interp"
)

// Sink is where a served pipeline's results leave it: the egress mirror of
// Source. The engine pushes the observable events of retired iterations in
// source order — the sequential oracle's order, at any depth and shard
// width — from exactly one goroutine, so an implementation needs no locking.
//
// Push is handed the events of one batch of retired iterations. The slice is
// the engine's again when Push returns: copy what must be kept. The packet
// bytes an event carries are not — a packet is immutable once pkt_send has
// handed it to its event, so a sink may keep Event.Pkt without copying. A
// Push that blocks paces the pipeline (its time is the pushing stage's
// TxWait) and should return ctx.Err() when ctx, the serve's own context,
// ends first. An error ends the serve with that error; the batch it refused
// is not delivered.
//
// Close is called exactly once by the serve that was handed the sink, on
// every exit — drained, canceled or failed — after the last Push returned.
// It finishes whatever Push left pending and reports how many events the
// sink has by then put where they go (Metrics.Flushed).
type Sink interface {
	Push(ctx context.Context, evs []interp.Event) error
	Close() (flushed int64, err error)
}

// traceChunkEvents sizes the trace sink's column chunks: big enough to
// amortize the per-chunk allocation, small enough that appending never
// re-copies what is already held (growing one flat slice costs a
// realloc-zero-copy cycle per doubling, which at streaming scale dominates
// the sink).
const (
	traceChunkEvents = 1 << 15
	traceChunkPkts   = traceChunkEvents / 4 // slice headers per chunk: not every event carries a packet
)

// hasPkt marks, in a staged kind byte, an event that carries a packet.
const hasPkt = 0x80

// TraceSink is the in-memory sink, and the default: it keeps every event and
// hands them back as one slice (Events; Metrics.Trace) once closed. While the
// serve runs an event is staged by column — a kind byte, a value, and a slice
// header only when it carries a packet — in pointer-free chunks the collector
// need not scan; Close expands the columns once into []interp.Event, so an
// event is held pointerful exactly once.
type TraceSink struct {
	kinds [][]uint8 // sealed chunks, then the one being filled
	vals  [][]int64
	pkts  [][][]byte
	n     int
	trace []interp.Event
}

// Push stages the events.
func (s *TraceSink) Push(_ context.Context, evs []interp.Event) error {
	if len(evs) == 0 {
		return nil
	}
	c, p := len(s.kinds)-1, len(s.pkts)-1
	for i := range evs {
		e := &evs[i]
		if c < 0 || len(s.kinds[c]) == traceChunkEvents {
			s.kinds = append(s.kinds, make([]uint8, 0, traceChunkEvents))
			s.vals = append(s.vals, make([]int64, 0, traceChunkEvents))
			c++
		}
		k := uint8(e.Kind)
		if e.Pkt != nil {
			k |= hasPkt
			if p < 0 || len(s.pkts[p]) == traceChunkPkts {
				s.pkts = append(s.pkts, make([][]byte, 0, traceChunkPkts))
				p++
			}
			s.pkts[p] = append(s.pkts[p], e.Pkt)
		}
		s.kinds[c] = append(s.kinds[c], k)
		s.vals[c] = append(s.vals[c], e.Val)
	}
	s.n += len(evs)
	return nil
}

// Close expands the staged columns into the trace, releasing each chunk as
// it is read so the serve never holds the trace twice.
func (s *TraceSink) Close() (int64, error) {
	if s.n > 0 {
		trace := make([]interp.Event, s.n)
		out, p := trace, 0
		var pkts [][]byte
		for c, kinds := range s.kinds {
			vals, dst := s.vals[c][:len(kinds)], out[:len(kinds)]
			for i, k := range kinds {
				dst[i].Kind, dst[i].Val = interp.EventKind(k&^hasPkt), vals[i]
				if k&hasPkt != 0 {
					if len(pkts) == 0 {
						pkts, s.pkts[p], p = s.pkts[p], nil, p+1
					}
					dst[i].Pkt, pkts = pkts[0], pkts[1:]
				}
			}
			out, s.kinds[c], s.vals[c] = out[len(kinds):], nil, nil
		}
		*s = TraceSink{trace: trace}
	}
	return int64(len(s.trace)), nil
}

// Events returns the trace; nil until Close.
func (s *TraceSink) Events() []interp.Event { return s.trace }

// adoptTrace publishes a served trace on the world, the oracle paths'
// convention. An empty world trace (the common case) adopts the slice instead
// of copying it — at streaming scale the trace is the largest allocation of
// the run; the full slice expression pins capacity so a later append to either
// alias reallocates rather than clobbering the other.
func adoptTrace(world *interp.World, trace []interp.Event) {
	if len(world.Trace) == 0 {
		world.Trace = trace[:len(trace):len(trace)]
	} else {
		world.Trace = append(world.Trace, trace...)
	}
}

// discardSink counts what it drops.
type discardSink struct{ n int64 }

// Discard returns a sink that keeps nothing: the serve runs in memory that
// does not grow with the stream.
func Discard() Sink { return &discardSink{} }

func (d *discardSink) Push(_ context.Context, evs []interp.Event) error {
	d.n += int64(len(evs))
	return nil
}

func (d *discardSink) Close() (int64, error) { return d.n, nil }

// hashSeed seeds every HashSink of the process: digests are only ever
// compared within one run.
var hashSeed = maphash.MakeSeed()

const hashPrime = 0x100000001b3

// HashSink folds the stream into one order-sensitive digest of (kind, value,
// packet bytes), so a served stream of any length is compared with the
// oracle's — pushed through a second HashSink — without either being
// resident. The zero value is ready to use.
type HashSink struct {
	sum    uint64
	events int64
}

// Push folds the events into the digest.
func (h *HashSink) Push(_ context.Context, evs []interp.Event) error {
	s := h.sum
	for i := range evs {
		e := &evs[i]
		s = (s ^ (uint64(e.Kind)<<56 ^ uint64(e.Val))) * hashPrime
		if e.Pkt != nil {
			s = (s ^ maphash.Bytes(hashSeed, e.Pkt)) * hashPrime
		}
	}
	h.sum = s
	h.events += int64(len(evs))
	return nil
}

// Close reports the number of events folded.
func (h *HashSink) Close() (int64, error) { return h.events, nil }

// Digest returns the digest so far and the number of events behind it.
func (h *HashSink) Digest() (sum uint64, events int64) { return h.sum, h.events }
