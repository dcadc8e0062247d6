package obsv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Phase classifies what a stage was doing during a span.
type Phase uint8

const (
	// PhaseWait is time blocked on the inbound ring (starved: the
	// upstream stage is the bottleneck).
	PhaseWait Phase = iota
	// PhaseExec is time executing the stage body over a batch.
	PhaseExec
	// PhaseTx is time handing the batch to the outbound ring, including
	// any backpressure block (the downstream stage is the bottleneck).
	PhaseTx
)

// String returns the phase name used by the exporters.
func (p Phase) String() string {
	switch p {
	case PhaseWait:
		return "wait"
	case PhaseExec:
		return "exec"
	case PhaseTx:
		return "tx"
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// parsePhase inverts String for the trace importer.
func parsePhase(s string) (Phase, error) {
	switch s {
	case "wait":
		return PhaseWait, nil
	case "exec":
		return PhaseExec, nil
	case "tx":
		return PhaseTx, nil
	}
	return 0, fmt.Errorf("unknown phase %q", s)
}

// Span is one contiguous activity of one stage: a (batch, stage, phase)
// interval on the serve run's private clock (Start is the offset from the
// run origin, not wall time, so traces from different runs align at 0).
type Span struct {
	// Stage is the 1-based pipeline stage.
	Stage int
	// Iter is the iteration index of the first packet in the batch the
	// span covers; -1 when the batch is not yet known (a wait span that
	// ended with ring close).
	Iter int64
	// N is the number of iterations the batch carried.
	N int
	// Phase is what the stage was doing.
	Phase Phase
	// Start is the offset from the trace origin; Dur the span length.
	Start time.Duration
	// Dur is the span's duration.
	Dur time.Duration
}

// defaultTracerCap bounds retained spans when NewTracer is given no
// explicit capacity: 1<<16 spans ≈ 3 MiB, enough for ~5k batches through
// a 4-stage pipeline.
const defaultTracerCap = 1 << 16

// Tracer accumulates spans from the stage goroutines. All methods are
// safe on a nil receiver (the disabled path) and safe for concurrent use;
// recording is a mutex-guarded append, so enable tracing for diagnosis
// runs, not for peak-throughput measurement.
type Tracer struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []Span
	max     int
	dropped int64
}

// NewTracer returns a tracer retaining at most max spans (<= 0 selects
// the default, 65536); spans past the cap are counted as dropped rather
// than grown without bound.
func NewTracer(max int) *Tracer {
	if max <= 0 {
		max = defaultTracerCap
	}
	return &Tracer{max: max}
}

// Reset clears recorded spans and stamps the trace origin; the runtime
// calls it once when a serve run starts so span offsets are run-relative.
func (t *Tracer) Reset(origin time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.origin = origin
	t.spans = t.spans[:0]
	t.dropped = 0
	t.mu.Unlock()
}

// Origin returns the trace origin set by Reset.
func (t *Tracer) Origin() time.Time {
	if t == nil {
		return time.Time{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.origin
}

// Record appends one span; past the capacity it only counts the drop.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < t.max {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Dropped reports how many spans the capacity bound discarded.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans returns a copy of the recorded spans in deterministic order:
// by start offset, then stage, then phase. (The raw append order is a
// goroutine interleaving and not reproducible; the sort is.)
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sortSpans(out)
	return out
}

func sortSpans(s []Span) {
	sort.SliceStable(s, func(i, j int) bool {
		a, b := s[i], s[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		return a.Iter < b.Iter
	})
}

// WriteChromeTrace renders the recorded spans as Chrome trace_event JSON
// (the "JSON array format" chrome://tracing and Perfetto load): one
// complete event ("ph":"X") per span, stages mapped to threads so the
// viewer draws one swimlane per stage. Timestamps are microseconds from
// the trace origin. The output is deterministic for a given span set.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, t.Spans())
}

// chromeEvent is the wire form of one trace_event entry.
type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Ts   float64         `json:"ts"`  // microseconds
	Dur  float64         `json:"dur"` // microseconds
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Args chromeEventArgs `json:"args"`
}

// chromeEventArgs carries the span fields the viewer shows on click.
type chromeEventArgs struct {
	Iter int64 `json:"iter"`
	N    int   `json:"n"`
}

// WriteChromeTrace renders spans as Chrome trace_event JSON; see
// (*Tracer).WriteChromeTrace. Spans are emitted in the order given —
// pass Tracer.Spans() (already deterministic) or pre-sorted data.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i, s := range spans {
		ev := chromeEvent{
			Name: s.Phase.String(),
			Cat:  "stage",
			Ph:   "X",
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  s.Stage,
			Args: chromeEventArgs{Iter: s.Iter, N: s.N},
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if _, err := bw.Write(data); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadChromeTrace parses trace_event JSON produced by WriteChromeTrace
// back into spans — the round-trip the golden-fixture test locks down.
// Events with unknown phase names are rejected.
func ReadChromeTrace(r io.Reader) ([]Span, error) {
	var evs []chromeEvent
	if err := json.NewDecoder(r).Decode(&evs); err != nil {
		return nil, fmt.Errorf("trace_event: %w", err)
	}
	spans := make([]Span, 0, len(evs))
	for i, ev := range evs {
		ph, err := parsePhase(ev.Name)
		if err != nil {
			return nil, fmt.Errorf("trace_event[%d]: %w", i, err)
		}
		if ev.Ph != "X" {
			return nil, fmt.Errorf("trace_event[%d]: unsupported event type %q", i, ev.Ph)
		}
		spans = append(spans, Span{
			Stage: ev.Tid,
			Iter:  ev.Args.Iter,
			N:     ev.Args.N,
			Phase: ph,
			Start: time.Duration(ev.Ts * 1e3),
			Dur:   time.Duration(ev.Dur * 1e3),
		})
	}
	return spans, nil
}

// Timeline renders spans as a compact per-stage text timeline, width
// columns wide: each row is one stage, each cell the dominant phase in
// that time bucket — '#' executing, 'w' ring-wait, 't' transmit blocked,
// '.' idle. It reads well in a terminal where a trace viewer is not at
// hand; the worked example in DESIGN.md §6.7 interprets one.
func Timeline(spans []Span, width int) string {
	if width <= 0 {
		width = 72
	}
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	var end time.Duration
	maxStage := 0
	for _, s := range spans {
		if e := s.Start + s.Dur; e > end {
			end = e
		}
		if s.Stage > maxStage {
			maxStage = s.Stage
		}
	}
	if end <= 0 || maxStage == 0 {
		return "(no spans)\n"
	}
	// busy[stage][bucket][phase] accumulates ns; the dominant phase wins
	// the cell.
	busy := make([][][3]int64, maxStage+1)
	for i := range busy {
		busy[i] = make([][3]int64, width)
	}
	bucket := end / time.Duration(width)
	if bucket <= 0 {
		bucket = 1
	}
	for _, s := range spans {
		if s.Stage < 1 || s.Stage > maxStage || s.Dur < 0 {
			continue
		}
		for t := s.Start; t < s.Start+s.Dur; {
			b := int(t / bucket)
			if b >= width {
				b = width - 1
			}
			bEnd := time.Duration(b+1) * bucket
			seg := s.Start + s.Dur - t
			if bEnd-t < seg {
				seg = bEnd - t
			}
			if seg <= 0 { // clamp guard for the final bucket
				seg = 1
			}
			busy[s.Stage][b][s.Phase] += int64(seg)
			t += seg
		}
	}
	glyphs := [3]byte{'w', '#', 't'}
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline: %v across %d buckets of %v  (#=exec w=ring-wait t=tx-block .=idle)\n",
		end.Round(time.Microsecond), width, bucket.Round(time.Microsecond))
	for stage := 1; stage <= maxStage; stage++ {
		fmt.Fprintf(&sb, "  stage %d |", stage)
		for b := 0; b < width; b++ {
			cell := byte('.')
			var best int64
			for ph, ns := range busy[stage][b] {
				if ns > best {
					best, cell = ns, glyphs[ph]
				}
			}
			sb.WriteByte(cell)
		}
		sb.WriteString("|\n")
	}
	return sb.String()
}

// PhaseTotals sums span durations per (stage, phase) — the aggregate the
// profile experiment and the periodic log lines report.
func PhaseTotals(spans []Span) map[int][3]time.Duration {
	totals := make(map[int][3]time.Duration)
	for _, s := range spans {
		t := totals[s.Stage]
		t[s.Phase] += s.Dur
		totals[s.Stage] = t
	}
	return totals
}
