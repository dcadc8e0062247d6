package runtime_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/interp"
	"repro/internal/netbench"
	"repro/internal/obsv"
	"repro/internal/runtime"
)

// TestSnapshotMidServe hammers Live.Snapshot from concurrent readers
// while the pipeline is serving. Under -race this is the proof that
// mid-run snapshotting is synchronization-safe; the monotonicity checks
// are the functional half — counters only grow while the run moves.
func TestSnapshotMidServe(t *testing.T) {
	_, stages := partitionIPv4(t, 3)
	traffic := ipv4Traffic(64)

	var liveMu sync.Mutex
	var live *runtime.Live
	cfg := runtime.Config{}
	cfg.Batch = 4
	cfg.OnLive = func(l *runtime.Live) {
		liveMu.Lock()
		live = l
		liveMu.Unlock()
	}

	// A source that keeps the run in flight long enough for the readers
	// to observe it mid-stream.
	var n atomic.Int64
	const total = 3000
	src := runtime.SourceFunc(func() ([]byte, bool) {
		i := n.Add(1)
		if i > total {
			return nil, false
		}
		if i%256 == 0 {
			time.Sleep(time.Millisecond)
		}
		return traffic[int(i)%len(traffic)], true
	})

	stop := make(chan struct{})
	var readers sync.WaitGroup
	var snaps atomic.Int64
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastIn, lastPkts int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				liveMu.Lock()
				l := live
				liveMu.Unlock()
				s := l.Snapshot()
				if s == nil {
					continue
				}
				snaps.Add(1)
				if len(s.Stages) != 3 {
					t.Errorf("snapshot covers %d stages, want 3", len(s.Stages))
					return
				}
				if s.Stages[0].In < lastIn || s.Packets < lastPkts {
					t.Errorf("counters went backwards: in %d->%d, packets %d->%d",
						lastIn, s.Stages[0].In, lastPkts, s.Packets)
					return
				}
				lastIn, lastPkts = s.Stages[0].In, s.Packets
				_ = s.Line()
				_ = s.String()
			}
		}()
	}

	m, err := runtime.Serve(context.Background(), stages, netbench.NewWorld(nil), src, cfg)
	close(stop)
	readers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if m.Packets != total {
		t.Fatalf("served %d packets, want %d", m.Packets, total)
	}
	if snaps.Load() == 0 {
		t.Fatal("no snapshots taken")
	}

	// After completion the snapshot is frozen and matches the Metrics.
	s := live.Snapshot()
	if s.Running {
		t.Error("completed run still reports Running")
	}
	if s.Packets != m.Packets || s.Elapsed != m.Elapsed {
		t.Errorf("final snapshot (%d pkts, %v) != metrics (%d pkts, %v)",
			s.Packets, s.Elapsed, m.Packets, m.Elapsed)
	}
	for k := range s.Stages {
		if s.Stages[k].In != m.Stages[k].In || s.Stages[k].Out != m.Stages[k].Out {
			t.Errorf("stage %d snapshot in/out (%d/%d) != metrics (%d/%d)", k+1,
				s.Stages[k].In, s.Stages[k].Out, m.Stages[k].In, m.Stages[k].Out)
		}
	}
}

// TestTracerSpansMidServe reads the tracer from other goroutines while a
// sharded serve records into it — the replicas of a stage share their
// stage's span log. Under -race this is the proof that Spans is safe
// mid-serve; the functional half is that a read never loses a span an
// earlier read saw, and the final read covers every iteration once per
// stage.
func TestTracerSpansMidServe(t *testing.T) {
	_, stages := partitionIPv4(t, 3)
	traffic := ipv4Traffic(64)
	const total = 3000
	var n atomic.Int64
	src := runtime.SourceFunc(func() ([]byte, bool) {
		i := n.Add(1)
		if i > total {
			return nil, false
		}
		if i%256 == 0 {
			time.Sleep(time.Millisecond)
		}
		return traffic[int(i)%len(traffic)], true
	})
	tr := obsv.NewTracer(0)
	cfg := runtime.Config{}
	cfg.Batch = 4
	cfg.Shards = 2
	cfg.Obs = &obsv.Observer{Tracer: tr}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := len(tr.Spans())
				if got < last {
					t.Errorf("a mid-serve read holds %d spans, an earlier one %d", got, last)
					return
				}
				last = got
				reads.Add(1)
			}
		}()
	}
	m, err := runtime.Serve(context.Background(), stages, netbench.NewWorld(nil), src, cfg)
	close(stop)
	readers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if m.Packets != total || reads.Load() == 0 {
		t.Fatalf("served %d packets with %d mid-serve reads, want %d and some", m.Packets, reads.Load(), total)
	}
	execIters := map[int]int64{}
	for _, s := range tr.Spans() {
		if s.Phase == obsv.PhaseExec {
			execIters[s.Stage] += int64(s.N)
		}
	}
	for stage := 1; stage <= 3; stage++ {
		if execIters[stage] != total {
			t.Errorf("stage %d exec spans cover %d iterations, want %d", stage, execIters[stage], total)
		}
	}
	if tr.Dropped() != 0 {
		t.Errorf("%d spans dropped under the default cap", tr.Dropped())
	}
}

// TestServeTracing checks the span stream's structural invariants on a
// deterministic run: spans only from real stages, exec and wait spans
// covering every delivered iteration exactly once per stage (the head's
// wait is its pull on the Source), tx phases only where rings exist, and a
// loadable Chrome export.
func TestServeTracing(t *testing.T) {
	prog, stages := partitionIPv4(t, 3)
	_ = prog
	const n = 40
	traffic := ipv4Traffic(n)

	tr := obsv.NewTracer(0)
	cfg := runtime.Config{}
	cfg.Batch = 8
	cfg.Obs = &obsv.Observer{Tracer: tr}
	m := chaosServe(t, stages, traffic, cfg)
	if m.Packets != n {
		t.Fatalf("served %d, want %d", m.Packets, n)
	}

	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("tracing enabled but no spans recorded")
	}
	execIters := map[int]int64{} // stage -> iterations covered by exec spans
	waitIters := map[int]int64{} // stage -> iterations covered by wait spans
	for _, s := range spans {
		if s.Stage < 1 || s.Stage > 3 {
			t.Fatalf("span names stage %d of a 3-stage pipeline", s.Stage)
		}
		if s.Dur < 0 || s.Start < 0 {
			t.Fatalf("negative span geometry: %+v", s)
		}
		switch s.Phase {
		case obsv.PhaseExec:
			execIters[s.Stage] += int64(s.N)
		case obsv.PhaseWait:
			waitIters[s.Stage] += int64(s.N)
		case obsv.PhaseTx:
			if s.Stage == 3 {
				t.Fatalf("sink stage has no outbound ring, got tx span %+v", s)
			}
		}
	}
	for stage := 1; stage <= 3; stage++ {
		if execIters[stage] != n {
			t.Errorf("stage %d exec spans cover %d iterations, want %d", stage, execIters[stage], n)
		}
		if waitIters[stage] != n {
			t.Errorf("stage %d wait spans cover %d iterations, want %d", stage, waitIters[stage], n)
		}
	}

	// The export must round-trip through the trace_event JSON form.
	var buf bytes.Buffer
	if err := obsv.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	back, err := obsv.ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(spans) {
		t.Errorf("round trip kept %d of %d spans", len(back), len(spans))
	}
	if out := obsv.Timeline(spans, 60); !strings.Contains(out, "stage 3 |") {
		t.Errorf("timeline missing stage rows:\n%s", out)
	}
}

// TestServeRegistryMirror checks the registry wiring: per-stage computed
// gauges reflect the final counters and the histograms saw every batch.
func TestServeRegistryMirror(t *testing.T) {
	_, stages := partitionIPv4(t, 2)
	const n = 48
	traffic := ipv4Traffic(n)

	reg := obsv.NewRegistry()
	cfg := runtime.Config{}
	cfg.Batch = 8
	cfg.Obs = &obsv.Observer{Registry: reg}
	m := chaosServe(t, stages, traffic, cfg)

	snap := reg.Snapshot()
	if got := snap["pipeline.packets"]; got != m.Packets {
		t.Errorf("pipeline.packets = %v, want %d", got, m.Packets)
	}
	if got := snap["pipeline.stages"]; got != int64(2) {
		t.Errorf("pipeline.stages = %v, want 2", got)
	}
	for k, st := range m.Stages {
		prefix := fmt.Sprintf("pipeline.stage%d.", k+1)
		if got := snap[prefix+"in"]; got != st.In {
			t.Errorf("%sin = %v, want %d", prefix, got, st.In)
		}
		if got := snap[prefix+"out"]; got != st.Out {
			t.Errorf("%sout = %v, want %d", prefix, got, st.Out)
		}
		fill, ok := snap[prefix+"batch_fill"].(*obsv.HistogramSnapshot)
		if !ok || fill.Count == 0 {
			t.Errorf("%sbatch_fill missing or empty: %v", prefix, snap[prefix+"batch_fill"])
		} else if fill.Sum != st.In {
			t.Errorf("%sbatch_fill sum = %d, want %d (every received iteration observed once)",
				prefix, fill.Sum, st.In)
		}
	}
	if _, ok := snap["pipeline.stage2.ring_wait_us"].(*obsv.HistogramSnapshot); !ok {
		t.Error("stage 2 ring_wait_us histogram missing")
	}
	if _, ok := snap["pipeline.stage1.ring_wait_us"]; ok {
		t.Error("head stage grew a ring_wait histogram despite having no inbound ring")
	}
}

// TestServePeriodicLog checks that LogEvery emits progress lines through
// the configured sink and that the logger goroutine is joined before
// Serve returns (no line lands after).
func TestServePeriodicLog(t *testing.T) {
	_, stages := partitionIPv4(t, 2)
	traffic := ipv4Traffic(32)

	var mu sync.Mutex
	var lines []string
	done := false
	cfg := runtime.Config{}
	cfg.Obs = &obsv.Observer{
		LogEvery: 2 * time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			if done {
				t.Error("log line emitted after Serve returned")
			}
			lines = append(lines, fmt.Sprintf(format, args...))
		},
	}
	// Slow the source so a few intervals elapse.
	var i atomic.Int64
	src := runtime.SourceFunc(func() ([]byte, bool) {
		k := i.Add(1)
		if k > 64 {
			return nil, false
		}
		time.Sleep(200 * time.Microsecond)
		return traffic[int(k)%len(traffic)], true
	})
	if _, err := runtime.Serve(context.Background(), stages, netbench.NewWorld(nil), src, cfg); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	done = true
	got := len(lines)
	var sample string
	if got > 0 {
		sample = lines[0]
	}
	mu.Unlock()
	if got == 0 {
		t.Fatal("no periodic log lines emitted")
	}
	if !strings.Contains(sample, "serve live") || !strings.Contains(sample, "s1 in=") {
		t.Errorf("log line shape drifted: %q", sample)
	}
}

// TestServeObservedOracleEquivalence proves instrumentation does not
// perturb behaviour: a fully observed run produces the byte-identical
// trace of an unobserved one.
func TestServeObservedOracleEquivalence(t *testing.T) {
	_, stages := partitionIPv4(t, 4)
	traffic := ipv4Traffic(96)

	plain := chaosServe(t, stages, traffic, runtime.Config{})

	cfg := runtime.Config{}
	cfg.Batch = 4
	cfg.Obs = &obsv.Observer{Tracer: obsv.NewTracer(0), Registry: obsv.NewRegistry()}
	observed := chaosServe(t, stages, traffic, cfg)

	if len(plain.Trace) == 0 {
		t.Fatal("empty baseline trace")
	}
	if diff := interp.TraceEqual(plain.Trace, observed.Trace); diff != "" {
		t.Fatalf("trace drifted under observation: %s", diff)
	}
}

// TestBadObserverRejected checks the validation path.
func TestBadObserverRejected(t *testing.T) {
	_, stages := partitionIPv4(t, 2)
	cfg := runtime.Config{}
	cfg.Obs = &obsv.Observer{LogEvery: -time.Second}
	_, err := runtime.Serve(context.Background(), stages, netbench.NewWorld(nil),
		runtime.Packets(ipv4Traffic(4)), cfg)
	if !errors.Is(err, errs.ErrBadOption) || !strings.Contains(err.Error(), "Obs") {
		t.Errorf("negative log interval: got %v, want ErrBadOption naming Obs", err)
	}
}
