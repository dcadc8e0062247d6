package obsv

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Histogram counts observations into fixed buckets (upper-bound
// inclusive, with an implicit +Inf overflow bucket). Observation is a
// linear scan over the bounds — keep bucket lists short on hot paths.
// The zero value is not usable; build histograms through the Registry.
type Histogram struct {
	bounds []int64 // ascending upper bounds
	counts []atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	// Bounds are the ascending bucket upper bounds; Counts has one entry
	// per bound plus the +Inf overflow bucket.
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// Registry is a named collection of computed gauges and histograms.
// Registration is get-or-create (so wiring code needs no "already
// registered" dance), a name maps to exactly one kind, and snapshots render
// deterministically in name order. All methods are safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	order []string
	kinds map[string]string // name -> func|histogram
	funcs map[string]func() int64
	hists map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds: map[string]string{},
		funcs: map[string]func() int64{},
		hists: map[string]*Histogram{},
	}
}

// register claims name for kind, panicking on a cross-kind collision —
// that is a wiring bug, not a runtime condition.
func (r *Registry) register(name, kind string) {
	if prev, ok := r.kinds[name]; ok {
		if prev != kind {
			panic(fmt.Sprintf("obsv: metric %q registered as %s and %s", name, prev, kind))
		}
		return
	}
	r.kinds[name] = kind
	r.order = append(r.order, name)
}

// Func registers a computed gauge: fn is evaluated at snapshot time, so
// mirroring an existing atomic counter into the registry costs nothing on
// the hot path. Re-registering a name replaces the function (the runtime
// re-wires per serve run).
func (r *Registry) Func(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, "func")
	r.funcs[name] = fn
}

// Histogram returns the histogram registered under name, creating it
// with the given ascending upper bounds on first use (later calls reuse
// the first bounds).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, "histogram")
	h, ok := r.hists[name]
	if !ok {
		b := make([]int64, len(bounds))
		copy(b, bounds)
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every metric's current value, keyed by name:
// computed gauges as int64, histograms as *HistogramSnapshot. The map is a
// point-in-time copy, safe to marshal.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.order))
	for _, name := range r.order {
		switch r.kinds[name] {
		case "func":
			out[name] = r.funcs[name]()
		case "histogram":
			h := r.hists[name]
			hs := &HistogramSnapshot{
				Bounds: append([]int64(nil), h.bounds...),
				Counts: make([]int64, len(h.counts)),
				Sum:    h.Sum(),
				Count:  h.Count(),
			}
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
			}
			out[name] = hs
		}
	}
	return out
}

// String renders the snapshot one metric per line in name order — the
// deterministic form the registry tests diff.
func (r *Registry) String() string {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		switch v := snap[name].(type) {
		case *HistogramSnapshot:
			fmt.Fprintf(&sb, "%s count=%d sum=%d buckets=", name, v.Count, v.Sum)
			for i, c := range v.Counts {
				if i > 0 {
					sb.WriteByte(',')
				}
				if i < len(v.Bounds) {
					fmt.Fprintf(&sb, "le%d:%d", v.Bounds[i], c)
				} else {
					fmt.Fprintf(&sb, "inf:%d", c)
				}
			}
			sb.WriteByte('\n')
		default:
			fmt.Fprintf(&sb, "%s %v\n", name, v)
		}
	}
	return sb.String()
}

// WriteJSON writes the snapshot as indented JSON (name-sorted, since
// encoding/json orders map keys) — the payload the HTTP handler serves.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Handler returns an http.Handler serving the JSON snapshot — mount it
// next to expvar's /debug/vars for a scrapeable metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
}

// Publish exposes the whole registry as one expvar.Var under name, so
// the stock /debug/vars endpoint includes it. Publishing the same name
// twice panics (an expvar property); publish once per process.
func (r *Registry) Publish(name string) {
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
