package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"time"

	"repro"
)

// options is what the command line (or a test) asks of one workload run.
type options struct {
	seed    int64
	seconds float64 // budget of the measuring phase
	reps    int     // fixed repetition count; 0 fills the budget
	short   bool    // smoke-test sizes
	e2e     bool    // report the end-to-end metrics (untraced runs only)
	layers  bool    // add the traced run and the per-layer probes
	outDir  string  // where trace-<workload>.json goes; "" writes none
}

// harness is the state of one workload run: its options, the samples every
// metric is the median of, the correctness tally, and the harness's own
// spans around each call it makes into a layer.
type harness struct {
	opt      options
	workload string
	samples  samples
	started  time.Time

	attempted, failed int64
	problems          []string

	// parts lists, per composite timing, the sample keys of its parts in
	// the order first recorded; derive holds the metrics a workload
	// computes from the run's samples by a rule of its own.
	parts  map[string][]string
	derive map[string]func(s samples) float64
	// paced names the wall-clock metrics that, on this workload, follow an
	// arrival schedule and not the host's speed: they are reported as
	// measured, without the host factor.
	paced map[string]bool

	spans []hspan
	open  []int // stack of open span ids
	// program spans of the traced run, and where their origin lies on the
	// harness clock.
	progSpans  []repro.Span
	progOrigin time.Duration
}

// hspan is one harness span: a call into a layer, with the span that
// caused it. All spans of one run share the run id in the trace file.
type hspan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 at the root
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func newHarness(name string, opt options) *harness {
	return &harness{opt: opt, workload: name, samples: samples{}, started: time.Now(),
		parts: map[string][]string{}, derive: map[string]func(samples) float64{}}
}

// span times f as a child of the innermost open span and returns how long
// it took. Spans are recorded from the harness goroutine only.
func (h *harness) span(name string, f func()) time.Duration {
	id := len(h.spans)
	parent := -1
	if n := len(h.open); n > 0 {
		parent = h.open[n-1]
	}
	t0 := time.Now()
	h.spans = append(h.spans, hspan{ID: id, Parent: parent, Name: name, StartNs: int64(t0.Sub(h.started))})
	h.open = append(h.open, id)
	f()
	d := time.Since(t0)
	h.open = h.open[:len(h.open)-1]
	h.spans[id].EndNs = h.spans[id].StartNs + int64(d)
	return d
}

// part records one sample of one part of a composite timing. A time the
// harness sees whole only at a grain of tens of milliseconds — a partition
// sweep, a set-up, a repetition — is recorded as the parts its clock can
// separate from outside (one cut, one call, one traffic cycle at the
// source), each a few milliseconds long, because what a shared host does
// to this process comes in bursts of milliseconds: a part is short enough
// to run between two of them, the whole almost never is.
func (h *harness) part(timing, part string, v float64) {
	key := timing + "/" + part
	if _, ok := h.samples[key]; !ok {
		h.parts[timing] = append(h.parts[timing], key)
	}
	h.samples.add(key, v)
}

// bestSum is the reported value of a composite timing over the sample set
// s: the sum over its parts of each part's best decile. It is the time the
// whole takes when no part is disturbed — lower than most wholes observed,
// and the same from run to run where their median is not.
func (h *harness) bestSum(s samples, timing string) float64 {
	var sum float64
	for _, key := range h.parts[timing] {
		sum += bestDecile(s[key], "lower")
	}
	return sum
}

// valueIn is a metric's reported number over the sample set s: the
// workload's own rule if it gave one, the sum of its parts if it was
// recorded in parts, else its estimator over its samples — 0 for a
// per-layer metric whose layer is not on this workload's path. A
// wall-clock end-to-end metric is then brought to the nominal host: a time
// divided, a rate multiplied, by the factor the host reference ran slower
// by over the same samples.
func (h *harness) valueIn(m metric, s samples) float64 {
	var v float64
	switch {
	case m.Name == "harness.fail_frac":
		return safeDiv(float64(h.failed), float64(h.attempted))
	case m.Name == "harness.host_factor":
		return hostFactor(s)
	case m.Name == "harness.wall_pkt_per_s":
		// Packets over each repetition's wall time as it was, median of
		// repetitions: nothing rebuilt or adjusted, the host's share
		// included.
		return median(s["pkt_per_s"])
	case h.derive[m.Name] != nil:
		v = h.derive[m.Name](s)
	case len(h.parts[m.Name]) > 0:
		v = h.bestSum(s, m.Name)
	default:
		v = m.of(s[m.Name])
	}
	if m.Clock && !h.paced[m.Name] {
		if m.Better == "higher" {
			v *= hostFactor(s)
		} else {
			v /= hostFactor(s)
		}
	}
	return v
}

// value is a metric's reported number for the run.
func (h *harness) value(m metric) float64 { return h.valueIn(m, h.samples) }

// problem records a correctness finding; any finding fails the command.
func (h *harness) problem(format string, args ...any) {
	h.problems = append(h.problems, fmt.Sprintf(format, args...))
}

// budget is the measuring time left to a phase that must end when the
// given share of -seconds has passed since the run began, so that a run's
// length does not depend on how long its set-up, oracle and warm-up took.
func (h *harness) budget(share float64) time.Duration {
	return time.Until(h.started.Add(time.Duration(h.opt.seconds * share * float64(time.Second))))
}

// repeat calls rep until the budget is spent (at least atLeast times), or
// exactly -reps times when that flag is set.
func (h *harness) repeat(budget time.Duration, atLeast int, rep func(i int) error) error {
	t0 := time.Now()
	for i := 0; ; i++ {
		if h.opt.reps > 0 {
			if i >= h.opt.reps {
				return nil
			}
		} else if i >= atLeast && time.Since(t0) >= budget {
			return nil
		}
		if err := rep(i); err != nil {
			return err
		}
	}
}

// writeTrace writes the harness's spans and the traced run's program
// spans to trace-<workload>.json. Program spans are rows of
// [stage, first_iter, n, phase, start_ns, dur_ns] on the harness clock.
func (h *harness) writeTrace() error {
	if h.opt.outDir == "" {
		return nil
	}
	rows := make([][6]int64, len(h.progSpans))
	for i, s := range h.progSpans {
		rows[i] = [6]int64{int64(s.Stage), s.Iter, int64(s.N), int64(s.Phase),
			int64(h.progOrigin + s.Start), int64(s.Dur)}
	}
	doc := struct {
		Workload string     `json:"workload"`
		RunID    string     `json:"run_id"`
		Seed     int64      `json:"seed"`
		Harness  []hspan    `json:"harness_spans"`
		Columns  []string   `json:"program_span_columns"`
		Program  [][6]int64 `json:"program_spans"`
	}{h.workload, fmt.Sprintf("%s-%d", h.workload, h.started.UnixNano()), h.opt.seed, h.spans,
		[]string{"stage", "first_iter", "n", "phase(0=wait,1=exec,2=tx)", "start_ns", "dur_ns"}, rows}
	if err := os.MkdirAll(h.opt.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(h.opt.outDir, "trace-"+h.workload+".json"), data, 0o644)
}

// settle empties the heap of the previous section's garbage before a timed
// one. Twice: an engine's sync.Pools keep its trace reachable for two
// collections after Serve returns.
func settle() {
	stdruntime.GC()
	stdruntime.GC()
}
