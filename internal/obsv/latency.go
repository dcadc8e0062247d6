package obsv

import (
	"sort"
	"time"
)

// BatchLatency is one batch's end-to-end residence time in the pipeline,
// reconstructed from the trace: from the earliest span that names the
// batch (its first stage's wait-or-exec start) to the latest one (its last
// stage's tx completion).
type BatchLatency struct {
	// Iter is the batch key — the iteration index of the batch's first
	// packet.
	Iter int64
	// N is the largest iteration count any span reported for the batch.
	N int
	// Latency is max(Start+Dur) − min(Start) over the batch's spans.
	Latency time.Duration
}

// BatchLatencies reconstructs per-batch pipeline latencies from recorded
// spans by grouping on the batch key (Span.Iter). A batch's latency is the
// interval from the first moment any stage started working on it to the
// last moment any stage finished with it — which upper-bounds every member
// packet's sojourn time, so a percentile over batch latencies is a sound
// (conservative) stand-in for a per-packet percentile. Spans with a negative
// Iter (waits that ended in ring close) carry no batch identity and are
// skipped. The result is ordered by batch key; batches only make sense to
// compare when the batch geometry was stable over the traced window (one
// Serve call).
func BatchLatencies(spans []Span) []BatchLatency {
	type window struct {
		first, last time.Duration
		n           int
	}
	byIter := make(map[int64]*window)
	for _, s := range spans {
		if s.Iter < 0 {
			continue
		}
		w, ok := byIter[s.Iter]
		if !ok {
			w = &window{first: s.Start, last: s.Start + s.Dur, n: s.N}
			byIter[s.Iter] = w
			continue
		}
		if s.Start < w.first {
			w.first = s.Start
		}
		if e := s.Start + s.Dur; e > w.last {
			w.last = e
		}
		if s.N > w.n {
			w.n = s.N
		}
	}
	out := make([]BatchLatency, 0, len(byIter))
	for iter, w := range byIter {
		out = append(out, BatchLatency{Iter: iter, N: w.n, Latency: w.last - w.first})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Iter < out[j].Iter })
	return out
}
