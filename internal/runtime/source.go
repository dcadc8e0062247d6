package runtime

import (
	"context"
	"io"
	"sync/atomic"
)

// Source supplies the packet stream a served pipeline consumes, one batch
// per call: internal/ingest's Source contract without its counters, so every
// ingest source satisfies it as it stands. Pull blocks until at least one
// packet is ready (or ctx is done), fills dst[:n] with what is ready without
// blocking again, and returns n; the head makes one Pull per batch and closes
// the batch with whatever came back. io.EOF ends the stream, as does a
// canceled ctx; any other error ends it too and Serve reports it. The packets
// are handed over: the pipeline may rewrite them in place. Pull is called
// from the head goroutine only.
type Source interface {
	Pull(ctx context.Context, dst [][]byte) (int, error)
}

// Lent is a per-packet stream served as a Source. Next returns the next
// packet and true, or nil and false when the stream is exhausted; a Next that
// blocks simply paces the pipeline. Its packets are lent, not handed over
// (the stream may hand the same bytes out again), so the head copies one
// before a stage rewrites it. Served, Pull fills the whole batch unless the
// serve's ctx is done first: it checks before each Next and returns what it
// has with ctx.Err(). Pulled directly, it checks ctx once per call. A Next
// that never returns is never interrupted; a source that can block
// indefinitely belongs behind a batch Source, which takes ctx.
type Lent interface {
	Source
	Next() ([]byte, bool)
}

// Lend serves a per-packet stream as a Source (see Lent).
func Lend(s interface{ Next() ([]byte, bool) }) Lent {
	if l, ok := s.(lender); ok {
		return l
	}
	return lender{s: s}
}

// lender is the one adapter from Next to Pull. It holds the stream as an
// interface value, so each packet costs one dynamic call. A serve arms it
// once (arm): stopped is then set when the serve's context is done, and Pull
// reads that flag, one atomic load, before each Next.
type lender struct {
	s       interface{ Next() ([]byte, bool) }
	stopped *atomic.Bool
}

func (l lender) Next() ([]byte, bool) { return l.s.Next() }

// arm returns l with a flag set once ctx is done, and the func that
// releases the flag's watch.
func (l lender) arm(ctx context.Context) (lender, func() bool) {
	stopped := new(atomic.Bool)
	l.stopped = stopped
	return l, context.AfterFunc(ctx, func() { stopped.Store(true) })
}

// unarmed is the flag of a lender no serve armed: it is never set.
var unarmed atomic.Bool

// Pull stops before the first Next after the serve that armed l is done. A
// lender no serve armed checks ctx once, before its first Next.
func (l lender) Pull(ctx context.Context, dst [][]byte) (int, error) {
	stopped := l.stopped
	if stopped == nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		stopped = &unarmed
	}
	for n := range dst {
		if stopped.Load() {
			return n, ctx.Err()
		}
		p, ok := l.s.Next()
		if !ok {
			return n, io.EOF
		}
		dst[n] = p
	}
	return len(dst), nil
}

// repeatSource cycles through a packet slice until total packets have been
// produced.
type repeatSource struct {
	pkts  [][]byte
	total int
	n     int
}

func (s *repeatSource) Next() ([]byte, bool) {
	if s.n >= s.total || len(s.pkts) == 0 {
		return nil, false
	}
	p := s.pkts[s.n%len(s.pkts)]
	s.n++
	return p, true
}

// Packets returns a Source that replays pkts once, in order.
func Packets(pkts [][]byte) Lent { return Repeat(pkts, len(pkts)) }

// Repeat returns a Source that cycles through pkts until total packets
// have been delivered — the saturated-arrivals load generator the serve
// benchmarks use.
func Repeat(pkts [][]byte, total int) Lent {
	return Lend(&repeatSource{pkts: pkts, total: total})
}

// funcSource adapts a closure.
type funcSource func() ([]byte, bool)

func (f funcSource) Next() ([]byte, bool) { return f() }

// SourceFunc adapts a closure to the Source interface (see Lent: a cancel
// is seen between calls, never during one).
func SourceFunc(f func() ([]byte, bool)) Lent { return Lend(funcSource(f)) }

// IngestStats are the boundary counters of a network-facing packet
// source feeding a serve run: what arrived, what the source itself
// dropped, and what it rejected as undecodable. The runtime does not
// maintain these — Config.Ingest supplies a snapshot closure (the repro
// package wires it to the ingest source's atomic counters) and the
// runtime surfaces the values through Snapshot.Ingest, Metrics.Ingest,
// and the ingest.* registry gauges.
type IngestStats struct {
	// RxPackets and RxBytes count packets (and their payload bytes)
	// accepted at the source boundary and handed to the pipeline.
	RxPackets, RxBytes int64
	// Drops counts packets lost at the source: on Linux the UDP source's
	// kernel receive-queue overflows; no other source drops.
	Drops int64
	// DecodeErrors counts frames rejected at the boundary: runt frames,
	// truncated capture records, oversized stream frames.
	DecodeErrors int64
}
