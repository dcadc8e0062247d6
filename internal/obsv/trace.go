package obsv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// Span logs: one per stage number (a span whose Stage lies outside
// 1..maxLogs-1 goes to log 0), stored in chunks of 64 spans, then 128, 256,
// 512 and from then on maxChunk.
const (
	maxLogs    = 65 // stages 1..64, the deepest cut the partitioner makes
	firstChunk = 64
	maxChunk   = firstChunk << 4
)

// Tracer accumulates spans from the stage goroutines. All methods are
// safe on a nil receiver (the disabled path) and safe for concurrent use.
// Each stage records into a log of its own, a list of chunks under the
// log's own lock, so stages never contend on one lock (replicas of a
// sharded stage share their stage's log) and a recorded span is never
// copied until Spans merges the logs. A log reserves room under the cap
// ahead of its spans, up to maxChunk at a time; when the cap runs out, the
// room other logs reserved and did not use is taken back before a span is
// dropped.
type Tracer struct {
	mu      sync.Mutex // guards origin and kept
	origin  time.Time
	kept    int64 // room the logs have reserved, at most max
	max     int64
	logs    [maxLogs]spanLog
	full    atomic.Bool // the cap ran out with no log holding unused room
	dropped atomic.Int64
}

// spanLog is one stage's spans: full chunks, then the one being filled,
// and the room under the cap it has reserved and not yet used.
type spanLog struct {
	mu     sync.Mutex
	room   int64
	chunks [][]Span
}

// NewTracer returns a tracer retaining at most max spans (<= 0 selects
// the default, 65536); spans past the cap are counted as dropped rather
// than grown without bound.
func NewTracer(max int) *Tracer {
	if max <= 0 {
		max = defaultTracerCap
	}
	return &Tracer{max: int64(max)}
}

// Reset clears recorded spans and stamps the trace origin; the runtime
// calls it once when a serve run starts so span offsets are run-relative.
func (t *Tracer) Reset(origin time.Time) {
	if t == nil {
		return
	}
	for i := range t.logs {
		l := &t.logs[i]
		l.mu.Lock()
		l.chunks, l.room = nil, 0
		l.mu.Unlock()
	}
	t.mu.Lock()
	t.origin, t.kept = origin, 0
	t.mu.Unlock()
	t.full.Store(false)
	t.dropped.Store(0)
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

// Record appends one span to its stage's log; past the capacity it only
// counts the drop.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	l := &t.logs[0]
	if s.Stage > 0 && s.Stage < maxLogs {
		l = &t.logs[s.Stage]
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.room == 0 && !t.full.Load() {
		if l.room = t.reserve(maxChunk); l.room == 0 {
			l.mu.Unlock()
			t.reclaim()
			l.mu.Lock()
			if l.room == 0 {
				l.room = t.reserve(1)
			}
			t.full.Store(l.room == 0)
		}
	}
	if l.room == 0 {
		t.dropped.Add(1)
		return
	}
	l.room--
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == cap(l.chunks[n-1]) {
		l.chunks, n = append(l.chunks, make([]Span, 0, firstChunk<<min(n, 4))), n+1
	}
	l.chunks[n-1] = append(l.chunks[n-1], s)
}

// reserve takes up to want spans' room from the cap and returns how much it
// got.
func (t *Tracer) reserve(want int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := max(min(want, t.max-t.kept), 0)
	t.kept += n
	return n
}

// reclaim returns to the cap the room every log reserved and did not use.
func (t *Tracer) reclaim() {
	for i := range t.logs {
		l := &t.logs[i]
		l.mu.Lock()
		t.mu.Lock()
		t.kept -= l.room
		t.mu.Unlock()
		l.room = 0
		l.mu.Unlock()
	}
}

// Dropped reports how many spans the capacity bound discarded.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Spans returns a copy of the recorded spans in deterministic order:
// by start offset, then stage, then phase. (The raw order is a goroutine
// interleaving and not reproducible; the sort is.) It may be called while
// spans are being recorded.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := []Span{}
	for i := range t.logs {
		l := &t.logs[i]
		l.mu.Lock()
		for _, c := range l.chunks {
			out = append(out, c...)
		}
		l.mu.Unlock()
	}
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

// WriteChromeTrace renders spans as Chrome trace_event JSON (the "JSON
// array format" chrome://tracing and Perfetto load): one complete event
// ("ph":"X") per span, stages mapped to threads so the viewer draws one
// swimlane per stage. Timestamps are microseconds from the trace origin.
// Spans are emitted in the order given — pass Tracer.Spans() (already
// deterministic) or pre-sorted data.
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
// '.' idle. Spans of no known phase, stage or duration are skipped. It
// reads well in a terminal where a trace viewer is not at hand; the worked
// example in DESIGN.md §6.7 interprets one.
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
		if s.Stage < 1 || s.Stage > maxStage || s.Dur < 0 || s.Phase > PhaseTx {
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
// profile experiment and the periodic log lines report. Spans of no known
// phase are skipped.
func PhaseTotals(spans []Span) map[int][3]time.Duration {
	totals := make(map[int][3]time.Duration)
	for _, s := range spans {
		if s.Phase > PhaseTx {
			continue
		}
		t := totals[s.Stage]
		t[s.Phase] += s.Dur
		totals[s.Stage] = t
	}
	return totals
}
