// Package obsv is the observability layer of the streaming runtime: it
// answers "why is this pipeline slow (or losing packets)?" with data
// instead of guesswork. Three instruments, all optional, all nil-safe:
//
//   - Tracer records one span per (iteration batch, stage, phase) — the
//     time a stage spent waiting on its inbound ring, executing the stage
//     body, and transmitting downstream — exportable as Chrome
//     `trace_event` JSON (chrome://tracing, Perfetto) or a compact text
//     timeline for terminals.
//   - Registry is a process-local metrics registry of computed gauges and
//     histograms: the runtime mirrors its per-stage counters into it as
//     gauges read at snapshot time; it renders deterministically, publishes
//     to expvar, and serves snapshots over HTTP.
//   - Observer bundles both with a periodic log line, and is what the
//     runtime actually threads through its hot loop.
//
// The contract that keeps the hot loop honest: a nil *Observer (or nil
// instrument field) is the disabled fast path — one pointer check per
// batch, no time.Now calls, no allocation. What turning the tracer on costs
// is a tracked number (obsv.trace_overhead_frac, BENCHMARK.json), not a gate.
package obsv

import (
	"fmt"
	"time"
)

// Observer bundles the observability instruments one serve run carries.
// A nil *Observer disables everything; each field is independently
// optional. The zero value is valid and observes nothing.
type Observer struct {
	// Tracer, when non-nil, records per-(batch, stage) phase spans.
	Tracer *Tracer
	// Registry, when non-nil, receives the runtime's mirrored metrics:
	// per-stage counters as computed gauges plus batch-fill and ring-wait
	// histograms.
	Registry *Registry
	// LogEvery, when positive, emits a progress line (packets, per-stage
	// in/out/stalls) every interval while the serve runs.
	LogEvery time.Duration
	// Logf receives the periodic lines; nil falls back to log.Printf.
	Logf func(format string, args ...any)
}

// Validate rejects an unusable observer configuration; a nil receiver is
// valid (observability disabled).
func (o *Observer) Validate() error {
	if o == nil {
		return nil
	}
	if o.LogEvery < 0 {
		return fmt.Errorf("negative log interval %v", o.LogEvery)
	}
	return nil
}

// Tracing reports whether span recording is enabled.
func (o *Observer) Tracing() bool { return o != nil && o.Tracer != nil }

// Metrics reports whether registry mirroring is enabled.
func (o *Observer) Metrics() bool { return o != nil && o.Registry != nil }
