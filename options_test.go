package repro_test

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/errs"
	"repro/internal/interp"
	"repro/internal/netbench"
	"repro/internal/runtime/fault"
)

// sentinelTable pairs every re-exported sentinel with its internal/errs
// counterpart. TestSentinelsComplete asserts the pairing is identity (the
// facade re-exports, never re-declares) and that the table itself is
// exhaustive, so adding a sentinel to internal/errs without re-exporting
// and covering it here fails the build or the test. The one sentinel the
// facade does not re-export is errs.ErrArchMismatch: no facade option
// carries a cost model, so only core's own API can return it
// (internal/core's TestPartitionRejectsOtherArch).
var sentinelTable = []struct {
	name     string
	exported error
	internal error
}{
	{"ErrNilProgram", repro.ErrNilProgram, errs.ErrNilProgram},
	{"ErrBadOption", repro.ErrBadOption, errs.ErrBadOption},
	{"ErrUnbalanced", repro.ErrUnbalanced, errs.ErrUnbalanced},
	{"ErrNoStages", repro.ErrNoStages, errs.ErrNoStages},
	{"ErrNilStage", repro.ErrNilStage, errs.ErrNilStage},
	{"ErrNilWorld", repro.ErrNilWorld, errs.ErrNilWorld},
	{"ErrNilSource", repro.ErrNilSource, errs.ErrNilSource},
	{"ErrNotServable", repro.ErrNotServable, errs.ErrNotServable},
	{"ErrConflictingOptions", repro.ErrConflictingOptions, errs.ErrConflictingOptions},
	{"ErrBadSource", repro.ErrBadSource, errs.ErrBadSource},
	{"ErrStagePanic", repro.ErrStagePanic, errs.ErrStagePanic},
}

func TestSentinelsComplete(t *testing.T) {
	for _, s := range sentinelTable {
		if s.exported != s.internal {
			t.Errorf("%s: facade re-declares instead of re-exporting", s.name)
		}
		if s.exported.Error() == "" {
			t.Errorf("%s: empty message", s.name)
		}
	}
	// The table is exhaustive: one row per errors.New in internal/errs,
	// ErrArchMismatch aside.
	src, err := os.ReadFile("internal/errs/errs.go")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(src), "= errors.New("); n != len(sentinelTable)+1 {
		t.Errorf("internal/errs declares %d sentinels, the table covers %d and ErrArchMismatch", n, len(sentinelTable))
	}
}

// TestOptionsRejectInvalid drives every validation path through the
// central validator via the public entry points. An out-of-range value
// surfaces as ErrBadOption with a message naming the option (or the
// configuration field it sets) — a malformed fault plan reaching the seam
// included — no matter which entry point receives it, and an option outside
// its entry point's scope as ErrConflictingOptions.
func TestOptionsRejectInvalid(t *testing.T) {
	prog := repro.MustCompile(facadeSrc)
	cases := []struct {
		name  string
		opts  []repro.Option
		want  error
		names string // what the message must name
	}{
		{"negative degree", []repro.Option{repro.WithStages(-1)}, repro.ErrBadOption, "Stages -1"},
		{"huge degree", []repro.Option{repro.WithStages(repro.MaxStages + 1)}, repro.ErrBadOption, "Stages 65"},
		{"epsilon above one", []repro.Option{repro.WithEpsilon(1.5)}, repro.ErrBadOption, "Epsilon 1.5"},
		{"negative epsilon", []repro.Option{repro.WithEpsilon(-0.5)}, repro.ErrBadOption, "Epsilon -0.5"},
		{"negative budget", []repro.Option{repro.WithBudget(-5)}, repro.ErrBadOption, "Budget -5"},
		{"negative ring", []repro.Option{repro.WithRing(repro.NNRing, -2)}, repro.ErrBadOption, "RingCapacity -2"},
		{"negative batch", []repro.Option{repro.WithBatch(-1)}, repro.ErrBadOption, "Batch -1"},
		{"negative iterations", []repro.Option{repro.WithIterations(-1)}, repro.ErrBadOption, "WithIterations -1"},
		{"fault plan stage zero",
			[]repro.Option{repro.WithFaultsForTest(&fault.Plan{Injections: []fault.Injection{
				{Kind: fault.Stall, Stage: 0},
			}})}, repro.ErrBadOption, "stage 0"},
		{"fault plan negative trigger",
			[]repro.Option{repro.WithFaultsForTest(&fault.Plan{Injections: []fault.Injection{
				{Kind: fault.Panic, Stage: 1, At: -3},
			}})}, repro.ErrBadOption, "negative trigger"},
		{"negative log interval",
			[]repro.Option{repro.WithObserver(&repro.Observer{LogEvery: -time.Second})},
			repro.ErrBadOption, "Obs: negative log interval -1s"},
		{"negative shard count",
			[]repro.Option{repro.WithShards(-1)}, repro.ErrBadOption, "Shards -1"},
		{"huge shard count",
			[]repro.Option{repro.WithShards(repro.MaxShards + 1)}, repro.ErrBadOption, "Shards 65"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := repro.Partition(prog, tc.opts...)
			if !errors.Is(err, tc.want) || !strings.Contains(fmt.Sprint(err), tc.names) {
				t.Errorf("Partition err = %v, want %v naming %q", err, tc.want, tc.names)
			}
		})
	}

	// The same validator guards the per-call option layers of the Pipeline
	// methods, not just Partition.
	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	src := repro.PacketSource(testPackets(1))
	if _, err := pipe.Serve(ctx, src, repro.WithShards(-1)); !errors.Is(err, repro.ErrBadOption) {
		t.Errorf("Serve(WithShards(-1)) err = %v, want ErrBadOption", err)
	}
	if _, err := pipe.Serve(ctx, src, repro.WithIterations(5)); !errors.Is(err, repro.ErrConflictingOptions) ||
		!strings.Contains(fmt.Sprint(err), "WithIterations") {
		t.Errorf("Serve(WithIterations(5)) err = %v, want ErrConflictingOptions naming WithIterations", err)
	}
	if _, err := pipe.Run(ctx, repro.NewWorld(nil), repro.WithIterations(-2)); !errors.Is(err, repro.ErrBadOption) {
		t.Errorf("Run(WithIterations(-2)) err = %v, want ErrBadOption", err)
	}
}

// TestOptionMatrix holds the option matrix in Option's doc comment to the
// constructors, which are the one list of options: the table's rows are
// exactly the With* constructors declared in options.go, and every yes/–
// cell is what the constructor's Option says about itself — which is what
// the entry points enforce (TestOptionScopes).
func TestOptionMatrix(t *testing.T) {
	all := []repro.Option{
		repro.WithStages(0), repro.WithEpsilon(0), repro.WithTxMode(0),
		repro.WithBudget(0), repro.WithIterations(0), repro.WithRing(repro.NNRing, 0),
		repro.WithBatch(0), repro.WithWorld(nil), repro.WithObserver(nil),
		repro.WithShards(0), repro.WithShardKey(nil), repro.WithFusion(0), repro.WithSource(nil), repro.WithSink(nil),
	}
	cell := map[bool]string{true: "yes", false: "-"}
	want := map[string]string{}
	for _, o := range all {
		name, run, serve := repro.DescribeOptionForTest(o)
		want[name] = fmt.Sprint("yes ", cell[run], " ", cell[serve])
	}

	file, err := parser.ParseFile(token.NewFileSet(), "options.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var doc string
	declared := 0
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if strings.HasPrefix(d.Name.Name, "With") && d.Recv == nil {
				declared++
				if _, ok := want[d.Name.Name]; !ok {
					t.Errorf("constructor %s is missing from this test's list", d.Name.Name)
				}
			}
		case *ast.GenDecl:
			if len(d.Specs) == 1 {
				if ts, ok := d.Specs[0].(*ast.TypeSpec); ok && ts.Name.Name == "Option" {
					doc = d.Doc.Text()
				}
			}
		}
	}
	if declared != len(want) {
		t.Errorf("options.go declares %d With* constructors, this test lists %d", declared, len(want))
	}

	rows := 0
	for _, line := range strings.Split(doc, "\n") {
		f := strings.Fields(strings.ReplaceAll(line, "–", "-"))
		if len(f) != 4 || !strings.HasPrefix(f[0], "With") {
			continue
		}
		rows++
		if got := strings.Join(f[1:], " "); got != want[f[0]] {
			t.Errorf("matrix row %s reads %q, the constructor says %q", f[0], got, want[f[0]])
		}
	}
	if rows != len(want) {
		t.Errorf("matrix has %d rows, options.go has %d options", rows, len(want))
	}
}

// TestServeAgreesWithRun is the exec-vs-interp differential at the facade:
// Serve drives the compiled stage programs (internal/exec), Run the
// reference interpreter, and on every benchmark PPS cut four ways the two
// must produce the same trace — which must also be the unpartitioned
// program's.
func TestServeAgreesWithRun(t *testing.T) {
	for _, pps := range append(netbench.IPv4Forwarding(), netbench.IPForwarding()...) {
		t.Run(pps.App+"/"+pps.Name, func(t *testing.T) {
			prog, err := pps.Compile()
			if err != nil {
				t.Fatal(err)
			}
			pipe, err := repro.Partition(prog, repro.WithStages(4))
			if err != nil {
				t.Fatal(err)
			}
			packets := pps.Traffic(96)
			ctx := context.Background()
			ran, err := pipe.Run(ctx, netbench.NewWorld(packets))
			if err != nil {
				t.Fatal(err)
			}
			m, err := pipe.Serve(ctx, repro.PacketSource(packets),
				repro.WithWorld(netbench.NewWorld(nil)), repro.WithBatch(8))
			if err != nil {
				t.Fatal(err)
			}
			if diff := repro.TraceEqual(ran, m.Trace); diff != "" {
				t.Errorf("Serve (exec) and Run (interp) disagree: %s", diff)
			}
			seq, err := interp.RunSequential(prog.Clone(), netbench.NewWorld(packets), len(packets))
			if err != nil {
				t.Fatal(err)
			}
			if diff := repro.TraceEqual(seq, ran); diff != "" {
				t.Errorf("Run diverges from the unpartitioned program: %s", diff)
			}
		})
	}
}

// TestStructuralSentinels covers the sentinels reported for malformed
// inputs rather than bad option values.
func TestStructuralSentinels(t *testing.T) {
	prog := repro.MustCompile(facadeSrc)
	ctx := context.Background()

	if _, err := repro.Partition(nil); !errors.Is(err, repro.ErrNilProgram) {
		t.Errorf("Partition(nil) err = %v, want ErrNilProgram", err)
	}

	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Run(ctx, nil); !errors.Is(err, repro.ErrNilWorld) {
		t.Errorf("Run(nil world) err = %v, want ErrNilWorld", err)
	}
	if _, err := pipe.Serve(ctx, nil); !errors.Is(err, repro.ErrNilSource) {
		t.Errorf("Serve(nil source) err = %v, want ErrNilSource", err)
	}

	// Explore requires a positive per-packet budget.
	a, err := repro.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Explore(); !errors.Is(err, repro.ErrBadOption) || !strings.Contains(err.Error(), "Budget") {
		t.Errorf("Explore() without budget err = %v, want ErrBadOption naming Budget", err)
	}

	// A pipeline with no pkt_rx site cannot pace a packet stream.
	norx, err := repro.Partition(repro.MustCompile(`pps NoRx { loop { trace(1); } }`), repro.WithStages(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := norx.Serve(ctx, repro.PacketSource(testPackets(1))); !errors.Is(err, repro.ErrNotServable) {
		t.Errorf("Serve(no rx) err = %v, want ErrNotServable", err)
	}

	// ErrUnbalanced guards the cut search against infeasible balance bands;
	// the heuristic's best-effort fallback makes it unreachable for
	// realistic programs, so pin the degraded form: over-partitioning either
	// succeeds or reports exactly this sentinel.
	if _, err := repro.Partition(prog, repro.WithStages(40)); err != nil && !errors.Is(err, repro.ErrUnbalanced) {
		t.Errorf("over-partitioning err = %v, want ErrUnbalanced (or success)", err)
	}
}

// TestFaultSentinelsSurfaceInReport drives the per-packet fault sentinel
// (panic) through the facade, reaching the runtime's fault seam by
// WithFaultsForTest: a served chaos schedule must quarantine the offending
// packet and embed the sentinel's message in its fault record, while Serve
// itself still returns success.
func TestFaultSentinelsSurfaceInReport(t *testing.T) {
	const n = 12
	pipe, err := repro.Partition(repro.MustCompile(facadeSrc), repro.WithStages(2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := pipe.Serve(context.Background(), repro.PacketSource(testPackets(n)),
		repro.WithFaultsForTest(&fault.Plan{Injections: []fault.Injection{
			{Kind: fault.Panic, Stage: 2, At: 2},
		}}))
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Faults
	if rep == nil {
		t.Fatal("serve metrics carry no fault report")
	}
	if rep.Quarantined != 1 || rep.Delivered != n-1 {
		t.Fatalf("quarantined %d delivered %d, want 1 and %d\n%s", rep.Quarantined, rep.Delivered, n-1, rep)
	}
	if len(rep.Records) != 1 {
		t.Fatalf("%d fault records, want 1\n%s", len(rep.Records), rep)
	}
	if rec := rep.Records[0]; rec.Iter != 2 || !strings.Contains(rec.Reason, repro.ErrStagePanic.Error()) {
		t.Errorf("fault record %+v, want iteration 2 naming %q", rec, repro.ErrStagePanic)
	}
}
