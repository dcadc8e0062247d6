// External test package: these tests exercise the concurrency contract of
// the two-phase API against the netbench programs, and netbench itself
// depends on core — an in-package test would be an import cycle.
package core_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/maxflow"
	"repro/internal/netbench"
	"repro/internal/ppc"
	"repro/internal/randprog"
)

// renderResult flattens a partition result to bytes: the full report plus
// the realized IR of every stage. Two results compare equal iff their
// observable output is byte-identical.
func renderResult(res *core.Result) string {
	var sb strings.Builder
	sb.WriteString(res.Report.String())
	for _, s := range res.Stages {
		sb.WriteString(s.Name)
		sb.WriteString("\n")
		sb.WriteString(s.Func.String())
	}
	return sb.String()
}

// mixedConfigs is the configuration matrix of the concurrency tests: mixed
// degrees, transmission modes, ring kinds and balance variances.
func mixedConfigs() []core.Options {
	return []core.Options{
		{Stages: 2},
		{Stages: 3, Tx: core.TxNaiveUnified},
		{Stages: 4, Tx: core.TxNaiveInterference},
		{Stages: 5, Channel: costmodel.ScratchRing},
		{Stages: 9, Epsilon: 0.25},
	}
}

// checkConcurrentMatchesSequential partitions prog under every config with
// the one-shot sequential Partition, then re-cuts all configs from a single
// shared Analysis on several goroutines at once and requires byte-identical
// output.
func checkConcurrentMatchesSequential(t *testing.T, name string, prog *ir.Program, configs []core.Options) {
	t.Helper()
	want := make([]string, len(configs))
	for i, cfg := range configs {
		res, err := core.Partition(prog, cfg)
		if err != nil {
			t.Fatalf("%s: sequential config %d: %v", name, i, err)
		}
		want[i] = renderResult(res)
	}

	a, err := core.Analyze(prog, nil)
	if err != nil {
		t.Fatalf("%s: analyze: %v", name, err)
	}
	const goroutines = 4
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the configs at a different starting
			// offset so identical configs overlap in time.
			for k := 0; k < len(configs); k++ {
				i := (g + k) % len(configs)
				res, err := a.Partition(configs[i])
				if err != nil {
					errCh <- err
					return
				}
				if got := renderResult(res); got != want[i] {
					t.Errorf("%s: config %d: concurrent result differs from sequential Partition", name, i)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("%s: concurrent partition: %v", name, err)
	}
}

// TestConcurrentPartitionNetbench: satellite requirement — concurrent
// (*Analysis).Partition calls at mixed degrees and transmission modes must
// be byte-identical to the sequential core.Partition for the benchmark
// PPSes.
func TestConcurrentPartitionNetbench(t *testing.T) {
	if testing.Short() {
		t.Skip("full netbench sweep")
	}
	for _, pname := range []string{"IPv4", "IP(v4)", "Scheduler"} {
		p, ok := netbench.ByName(pname)
		if !ok {
			t.Fatalf("unknown PPS %q", pname)
		}
		prog, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		checkConcurrentMatchesSequential(t, pname, prog, mixedConfigs())
	}
}

// TestConcurrentPartitionRandprog runs the same byte-identity check over a
// batch of generated programs.
func TestConcurrentPartitionRandprog(t *testing.T) {
	if testing.Short() {
		t.Skip("randprog batch")
	}
	cfg := randprog.DefaultConfig()
	for seed := int64(1); seed <= 5; seed++ {
		src := randprog.Generate(seed, cfg)
		prog, err := ppc.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		configs := []core.Options{
			{Stages: 2},
			{Stages: 3, Tx: core.TxNaiveUnified},
			{Stages: 4},
		}
		checkConcurrentMatchesSequential(t, prog.Name, prog, configs)
	}
}

// TestExploreWorkerCountInvariant: the budget exploration must select the
// same degree, render the same report and log the same candidates whether
// it runs sequentially (GOMAXPROCS=1) or fanned out over four cores.
func TestExploreWorkerCountInvariant(t *testing.T) {
	p, _ := netbench.ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	explore := func(procs int, budget int64) *core.ExploreResult {
		runtime.GOMAXPROCS(procs)
		ex, err := core.Explore(prog, core.ExploreOptions{Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	for _, budget := range []int64{1, 200, 1 << 40} {
		seq, par := explore(1, budget), explore(4, budget)
		if seq.Degree != par.Degree || seq.Met != par.Met {
			t.Fatalf("budget %d: sequential (D=%d met=%v) != parallel (D=%d met=%v)",
				budget, seq.Degree, seq.Met, par.Degree, par.Met)
		}
		if len(seq.Candidates) != len(par.Candidates) {
			t.Fatalf("budget %d: candidate logs differ: %d vs %d",
				budget, len(seq.Candidates), len(par.Candidates))
		}
		for i := range seq.Candidates {
			if seq.Candidates[i] != par.Candidates[i] {
				t.Errorf("budget %d: candidate %d differs: %+v vs %+v",
					budget, i, seq.Candidates[i], par.Candidates[i])
			}
		}
		if renderResult(seq.Result) != renderResult(par.Result) {
			t.Errorf("budget %d: selected results differ", budget)
		}
	}
}

// TestNetbenchInfEdgeHeadroom: satellite requirement — the sum of the
// infinite-capacity edges in the largest benchmark flow network must stay
// below MaxInt64, i.e. every network sits (far) below maxflow.MaxInfEdges.
func TestNetbenchInfEdgeHeadroom(t *testing.T) {
	maxInf := 0
	for _, p := range append(netbench.IPv4Forwarding(), netbench.IPForwarding()...) {
		prog, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Analyze(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := core.AnalysisInfEdges(a)
		if n > maxInf {
			maxInf = n
		}
		if n > maxflow.MaxInfEdges {
			t.Errorf("%s: %d infinite edges exceed the overflow headroom %d",
				p.Name, n, maxflow.MaxInfEdges)
		}
	}
	if maxInf == 0 {
		t.Fatal("no benchmark network holds infinite edges; the guard is untested")
	}
	// The real networks must not be anywhere close to the guard: demand two
	// orders of magnitude of headroom so growth has room before the panic.
	if maxInf > maxflow.MaxInfEdges/100 {
		t.Errorf("largest benchmark network has %d infinite edges, uncomfortably close to the cap %d",
			maxInf, maxflow.MaxInfEdges)
	}
}
