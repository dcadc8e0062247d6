package repro_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro"
)

const facadeSrc = `pps Demo { loop {
	var n = pkt_rx();
	if (n < 0) { continue; }
	var x = (n * 7 + 3) ^ 0x55;
	trace(x);
	pkt_send(x & 3);
} }`

// seqTrace computes the sequential-oracle trace of an unpartitioned
// program: the degree-1 cut is the identity realization, so its Run is the
// reference every other execution path is compared against.
func seqTrace(t testing.TB, prog *repro.Program, packets [][]byte, iters int) []repro.Event {
	t.Helper()
	oracle, err := repro.Partition(prog, repro.WithStages(1))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := oracle.Run(context.Background(), repro.NewWorld(packets), repro.WithIterations(iters))
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func testPackets(n int) [][]byte {
	packets := make([][]byte, n)
	for i := range packets {
		packets[i] = []byte{byte(i), byte(i >> 8), byte(i * 3)}
	}
	return packets
}

func TestFacadeEndToEnd(t *testing.T) {
	prog, err := repro.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := repro.Partition(prog, repro.WithStages(3))
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Degree() != 3 || len(pipe.Stages()) != 3 {
		t.Fatalf("got %d stages", pipe.Degree())
	}
	packets := [][]byte{{1, 2}, {3}, {4, 5, 6}}
	seq := seqTrace(t, prog, packets, 3)
	got, err := pipe.Run(context.Background(), repro.NewWorld(packets))
	if err != nil {
		t.Fatal(err)
	}
	if diff := repro.TraceEqual(seq, got); diff != "" {
		t.Fatal(diff)
	}
	if pipe.Report().Speedup <= 0 {
		t.Error("missing speedup in report")
	}
}

// TestServeEndToEnd is the full product path: compile -> analyze ->
// partition -> serve a 10k-packet stream on the concurrent host runtime,
// then check the metrics and the trace against the sequential oracle.
func TestServeEndToEnd(t *testing.T) {
	prog, err := repro.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	a, err := repro.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := a.Partition(repro.WithStages(4))
	if err != nil {
		t.Fatal(err)
	}

	const n = 10000
	packets := testPackets(n)
	seq := seqTrace(t, prog, packets, n)

	m, err := pipe.Serve(context.Background(), repro.PacketSource(packets))
	if err != nil {
		t.Fatal(err)
	}
	if m.Packets != n {
		t.Fatalf("served %d packets, want %d", m.Packets, n)
	}
	if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatalf("serve diverged from the sequential oracle: %s", diff)
	}
	if len(m.Stages) != 4 {
		t.Fatalf("metrics cover %d stages, want 4", len(m.Stages))
	}
	for _, s := range m.Stages {
		// A stage fused into an earlier one books nothing of its own.
		if s.FusedInto == 0 && (s.In != n || s.Out != n) {
			t.Errorf("stage %d: in=%d out=%d, want %d/%d", s.Stage, s.In, s.Out, n, n)
		}
	}
	if m.Elapsed <= 0 || m.PacketsPerSecond() <= 0 {
		t.Errorf("throughput not measured: elapsed=%v pps=%f", m.Elapsed, m.PacketsPerSecond())
	}
}

// TestServeCancelNoLeak cancels an endless serve mid-stream and asserts the
// stage goroutines drain (run under -race in CI).
func TestServeCancelNoLeak(t *testing.T) {
	prog := repro.MustCompile(facadeSrc)
	pipe, err := repro.Partition(prog, repro.WithStages(4))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	served := 0
	src := repro.SourceFunc(func() ([]byte, bool) {
		served++
		if served == 500 {
			cancel()
		}
		return []byte{byte(served)}, true // endless
	})
	m, err := pipe.Serve(ctx, src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m == nil || m.Packets == 0 {
		t.Fatal("cancellation should still return partial metrics")
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked after cancel: %d > %d", g, before)
	}
}

// TestServeCancelMidBatch: a per-packet source pacing one packet every 10 ms
// is canceled 20 ms in, while its first batch of 32 is still filling. The
// head sees the cancel between two Next calls, not when the batch is full
// some 320 ms in: Serve returns within 100 ms, and every packet pulled is
// delivered.
func TestServeCancelMidBatch(t *testing.T) {
	pipe, err := repro.Partition(repro.MustCompile(facadeSrc), repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := repro.SourceFunc(func() ([]byte, bool) {
		time.Sleep(10 * time.Millisecond)
		return []byte{1, 2, 3, 4}, true // endless
	})
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	m, err := pipe.Serve(ctx, src, repro.WithBatch(32))
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("Serve returned %v after start, want within 100ms of a cancel at 20ms", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	rep, pulled := m.Faults, m.Stages[0].In
	if pulled < 1 || rep.Accounted() != pulled || rep.Delivered != m.Packets || m.Packets != pulled {
		t.Errorf("ledger: pulled %d, accounted %d, delivered %d, sink retired %d",
			pulled, rep.Accounted(), rep.Delivered, m.Packets)
	}
}

// TestNilInputs pins the typed errors every entry point returns instead of
// panicking on nil inputs.
func TestNilInputs(t *testing.T) {
	if _, err := repro.Partition(nil, repro.WithStages(2)); !errors.Is(err, repro.ErrNilProgram) {
		t.Errorf("Partition(nil) err = %v, want ErrNilProgram", err)
	}
	if _, err := repro.Analyze(nil); !errors.Is(err, repro.ErrNilProgram) {
		t.Errorf("Analyze(nil) err = %v, want ErrNilProgram", err)
	}
	prog := repro.MustCompile(facadeSrc)
	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := pipe.Run(ctx, nil); !errors.Is(err, repro.ErrNilWorld) {
		t.Errorf("Run(nil world) err = %v, want ErrNilWorld", err)
	}
	if _, err := pipe.Serve(ctx, nil); !errors.Is(err, repro.ErrNilSource) {
		t.Errorf("Serve(nil source) err = %v, want ErrNilSource", err)
	}
}

// TestOptionValidation pins the typed errors of the central validator, no
// matter which entry point receives the bad value.
func TestOptionValidation(t *testing.T) {
	prog := repro.MustCompile(facadeSrc)
	cases := []struct {
		name string
		opt  repro.Option
	}{
		{"negative degree", repro.WithStages(-1)},
		{"huge degree", repro.WithStages(repro.MaxStages + 1)},
		{"bad epsilon", repro.WithEpsilon(1.5)},
		{"negative ring", repro.WithRing(repro.NNRing, -2)},
		{"negative batch", repro.WithBatch(-1)},
		{"negative budget", repro.WithBudget(-5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := repro.Partition(prog, tc.opt); !errors.Is(err, repro.ErrBadOption) {
				t.Errorf("Partition err = %v, want ErrBadOption", err)
			}
		})
	}
	// The same bad value through a Pipeline method hits the same validator.
	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Serve(context.Background(), repro.PacketSource(testPackets(1)), repro.WithBatch(-3)); !errors.Is(err, repro.ErrBadOption) {
		t.Errorf("Serve(WithBatch(-3)) err = %v, want ErrBadOption", err)
	}
	// An unmeetable balance constraint surfaces as ErrUnbalanced.
	if _, err := repro.Partition(prog, repro.WithStages(40)); err != nil && !errors.Is(err, repro.ErrUnbalanced) {
		t.Errorf("over-partitioning err = %v, want ErrUnbalanced (or success)", err)
	}
}

// TestOptionScopes pins the per-entry-point option scoping: an option
// passed where it means nothing is rejected as ErrConflictingOptions (not
// silently ignored), while the analysis-phase entry points accept every
// option as pipeline-wide defaults.
func TestOptionScopes(t *testing.T) {
	prog := repro.MustCompile(facadeSrc)
	ctx := context.Background()

	// Partition accepts execution options as inherited defaults.
	pipe, err := repro.Partition(prog, repro.WithStages(3),
		repro.WithBatch(4), repro.WithIterations(3))
	if err != nil {
		t.Fatal(err)
	}
	packets := testPackets(3)
	world := repro.NewWorld(packets)
	src := repro.PacketSource(packets)

	if _, err := pipe.Serve(ctx, src, repro.WithIterations(4)); !errors.Is(err, repro.ErrConflictingOptions) {
		t.Errorf("Serve(WithIterations) err = %v, want ErrConflictingOptions", err)
	}
	if _, err := pipe.Run(ctx, world, repro.WithBatch(8)); !errors.Is(err, repro.ErrConflictingOptions) {
		t.Errorf("Run(WithBatch) err = %v, want ErrConflictingOptions", err)
	}
	if _, err := pipe.Run(ctx, world, repro.WithRing(repro.ScratchRing, 0)); !errors.Is(err, repro.ErrConflictingOptions) {
		t.Errorf("Run(WithRing) err = %v, want ErrConflictingOptions", err)
	}
	if _, err := pipe.Serve(ctx, src, repro.WithStages(2)); !errors.Is(err, repro.ErrConflictingOptions) {
		t.Errorf("Serve(WithStages) err = %v, want ErrConflictingOptions", err)
	}

	// In-scope calls still work, inheriting the Partition-time defaults.
	if _, err := pipe.Run(ctx, world, repro.WithIterations(2)); err != nil {
		t.Errorf("Run(WithIterations) err = %v", err)
	}
	if _, err := pipe.Serve(ctx, repro.PacketSource(packets), repro.WithBatch(2)); err != nil {
		t.Errorf("Serve(WithBatch) err = %v", err)
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile did not panic on bad source")
		}
	}()
	repro.MustCompile("not a program")
}
