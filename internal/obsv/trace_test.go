package obsv

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

var update = flag.Bool("update", false, "rewrite the golden trace fixture")

// fixtureSpans is a fixed two-stage pipeline fragment: stage 1 executes
// and transmits two batches while stage 2 waits, executes, and retires
// them. Everything is hand-specified, so the exported JSON is
// byte-stable across runs and machines.
func fixtureSpans() []Span {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return []Span{
		{Stage: 1, Iter: 0, N: 32, Phase: PhaseExec, Start: 0, Dur: ms(4)},
		{Stage: 1, Iter: 0, N: 32, Phase: PhaseTx, Start: ms(4), Dur: ms(1)},
		{Stage: 2, Iter: -1, N: 0, Phase: PhaseWait, Start: 0, Dur: ms(5)},
		{Stage: 2, Iter: 0, N: 32, Phase: PhaseExec, Start: ms(5), Dur: ms(7)},
		{Stage: 1, Iter: 32, N: 32, Phase: PhaseExec, Start: ms(5), Dur: ms(4)},
		{Stage: 1, Iter: 32, N: 32, Phase: PhaseTx, Start: ms(9), Dur: ms(3)},
		{Stage: 2, Iter: 32, N: 32, Phase: PhaseExec, Start: ms(12), Dur: ms(7)},
	}
}

// TestChromeTraceGolden locks the trace_event exporter's output down to a
// checked-in fixture and verifies the importer round-trips it exactly.
// Regenerate with: go test ./internal/obsv -run TestChromeTraceGolden -update
func TestChromeTraceGolden(t *testing.T) {
	spans := fixtureSpans()
	sortSpans(spans)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exported trace drifted from %s:\n--- got ---\n%s--- want ---\n%s",
			path, buf.Bytes(), want)
	}

	// Round trip: the golden bytes must parse back to the exact spans.
	got, err := ReadChromeTrace(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Errorf("round trip drifted:\n got %+v\nwant %+v", got, spans)
	}

	// And a second export of the re-imported spans is byte-identical:
	// export -> import -> export is a fixed point.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("export/import/export is not a fixed point")
	}
}

func TestReadChromeTraceRejectsUnknown(t *testing.T) {
	if _, err := ReadChromeTrace(strings.NewReader(`[{"name":"nap","ph":"X"}]`)); err == nil {
		t.Error("unknown phase name accepted")
	}
	if _, err := ReadChromeTrace(strings.NewReader(`[{"name":"exec","ph":"B"}]`)); err == nil {
		t.Error("non-complete event type accepted")
	}
	if _, err := ReadChromeTrace(strings.NewReader(`{`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestTracerCapAndReset(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Record(Span{Stage: 1, Iter: int64(i), Phase: PhaseExec})
	}
	if got := len(tr.Spans()); got != 3 {
		t.Errorf("retained %d spans, want 3", got)
	}
	if got := tr.Dropped(); got != 2 {
		t.Errorf("dropped %d spans, want 2", got)
	}
	origin := time.Unix(100, 0)
	tr.Reset(origin)
	if got := len(tr.Spans()); got != 0 {
		t.Errorf("reset retained %d spans", got)
	}
	if tr.Dropped() != 0 {
		t.Error("reset did not clear the drop count")
	}
	if !tr.Origin().Equal(origin) {
		t.Errorf("origin = %v, want %v", tr.Origin(), origin)
	}
}

// TestTracerRecordAllocation: recording N spans allocates about what it
// keeps. A single growing slice would re-copy itself at every growth step
// (several times N spans in all); the per-stage chunk logs copy nothing and
// waste at most one partly filled chunk per stage.
func TestTracerRecordAllocation(t *testing.T) {
	const n = 100_000
	tr := NewTracer(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		tr.Record(Span{Stage: 1 + i%4, Iter: int64(i), N: 32, Phase: Phase(i % 3)})
	}
	runtime.ReadMemStats(&after)
	limit := 1.1 * n * float64(unsafe.Sizeof(Span{}))
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > limit {
		t.Errorf("recording %d spans allocated %.0f bytes, over the %.0f-byte budget", n, got, limit)
	}
	if got := len(tr.Spans()); got != n || tr.Dropped() != 0 {
		t.Errorf("retained %d spans and dropped %d, want %d and 0", got, tr.Dropped(), n)
	}
}

// TestTracerCapAcrossStages: the cap bounds the spans of all stages
// together, and every span past it is counted.
func TestTracerCapAcrossStages(t *testing.T) {
	tr := NewTracer(100)
	for i := 0; i < 1000; i++ {
		tr.Record(Span{Stage: i % 7, Iter: int64(i)}) // stage 0: out of range, shares log 0
	}
	if got := len(tr.Spans()); got > 100 || int64(got)+tr.Dropped() != 1000 {
		t.Errorf("retained %d spans and dropped %d of 1000 under a cap of 100", got, tr.Dropped())
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tr.Record(Span{Stage: 1})
	tr.Reset(time.Now())
	if tr.Spans() != nil || tr.Dropped() != 0 || !tr.Origin().IsZero() {
		t.Error("nil tracer observed something")
	}
}

func TestTimeline(t *testing.T) {
	out := Timeline(fixtureSpans(), 19)
	if !strings.Contains(out, "stage 1 |") || !strings.Contains(out, "stage 2 |") {
		t.Fatalf("timeline missing stage rows:\n%s", out)
	}
	// Stage 2 starts blocked on its inbound ring: the first bucket of its
	// row must be the wait glyph.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "stage 2 |") {
			row := line[strings.Index(line, "|")+1:]
			if row[0] != 'w' {
				t.Errorf("stage 2 should start ring-waiting, row %q", row)
			}
			if !strings.Contains(row, "#") {
				t.Errorf("stage 2 row shows no execution: %q", row)
			}
		}
	}
	if got := Timeline(nil, 40); got != "(no spans)\n" {
		t.Errorf("empty timeline = %q", got)
	}
}

// TestUnknownPhaseSkipped: Span is exported, so a hand-built span may carry
// a phase the exporters do not know; Timeline and PhaseTotals skip it
// instead of indexing past their per-phase arrays.
func TestUnknownPhaseSkipped(t *testing.T) {
	// Within the fixture's 19 ms, so only its phase can change the output.
	spans := append(fixtureSpans(), Span{Stage: 1, Phase: 7, Start: 0, Dur: 19 * time.Millisecond})
	if got, want := Timeline(spans, 19), Timeline(fixtureSpans(), 19); got != want {
		t.Errorf("timeline with an unknown-phase span:\n%s\nwithout:\n%s", got, want)
	}
	if got, want := PhaseTotals(spans), PhaseTotals(fixtureSpans()); !reflect.DeepEqual(got, want) {
		t.Errorf("phase totals with an unknown-phase span = %v, want %v", got, want)
	}
}

func TestPhaseTotals(t *testing.T) {
	totals := PhaseTotals(fixtureSpans())
	if got := totals[1][PhaseExec]; got != 8*time.Millisecond {
		t.Errorf("stage 1 exec total = %v, want 8ms", got)
	}
	if got := totals[2][PhaseWait]; got != 5*time.Millisecond {
		t.Errorf("stage 2 wait total = %v, want 5ms", got)
	}
	if got := totals[1][PhaseTx]; got != 4*time.Millisecond {
		t.Errorf("stage 1 tx total = %v, want 4ms", got)
	}
}
