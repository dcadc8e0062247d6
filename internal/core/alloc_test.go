package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/netbench"
	"repro/internal/ppc"
)

// TestPartitionAllocBudget counts what one Partition allocates, because
// counts repeat exactly where milliseconds do not. Before the per-cut work
// was reduced to what depends on the cut, IPv4 read 16798 allocations at
// D=4 and 38069 at D=9 (go1.24.0); the ceilings are 60 % of those, so they
// catch a return of the old per-stage function clone or per-cut adjacency
// long before they catch noise.
//
// Bytes are held too. Before each call got one workspace that its cut
// searches and stage realizations reuse, IPv4 read 552,024 and 1,158,381
// bytes per Partition at D=4 and D=9, most of it a fresh flow network per
// cut. A call on a fresh Analysis, whose pool of idle workspaces is empty,
// now reads 230,863 and 315,386: the returned programs and report plus one
// workspace, whose network holds only the cut's window. Those are the
// numbers held; the ceilings sit about 10 % above the 341,085 and 505,999
// read when the workspace still held a whole-network clone, so a per-cut
// network or per-stage scratch coming back fails here. They do not depend
// on the pool, which the race detector makes drop a quarter of what it is
// handed. Calls on a warm Analysis (about 168,000 and 250,000) must come in
// well under a cold one: the pool must work.
//
// Allocations are counted on the fresh Analysis too: on a warm one the count
// moves with the pool, which under -race made a warm D=1 call read anywhere
// from 65 to 95. D=1 is held as well, so the ceilings bracket both ends of
// a sweep. Before stages were realized on stage-sized shells a fresh D=1,
// 4 and 9 call made 126, 489 and 976 allocations and D=1 read 137,651
// bytes (116,869 warm); after, 139, 439 and 792, and D=1 139,567 bytes
// (102,236 warm). The allocation ceilings and D=1's byte ceiling sit about
// 12 % above the new numbers under -race.
func TestPartitionAllocBudget(t *testing.T) {
	p, _ := netbench.ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	analyze := func() *core.Analysis {
		a, err := core.Analyze(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	partition := func(a *core.Analysis, degree int) {
		if _, err := a.Partition(core.Options{Stages: degree}); err != nil {
			t.Fatal(err)
		}
	}
	// bytes returns the bytes and allocations fn makes.
	bytes := func(fn func()) (float64, float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc), float64(after.Mallocs - before.Mallocs)
	}
	warmA := analyze()
	for _, tc := range []struct {
		degree        int
		ceiling, maxB float64
	}{{1, 158, 156_000}, {4, 510, 375_000}, {9, 920, 557_000}} {
		const runs = 20
		cold, got := 0.0, 0.0
		for i := 0; i < runs; i++ {
			a := analyze()
			b, n := bytes(func() { partition(a, tc.degree) })
			cold, got = cold+b/runs, got+n/runs
		}
		t.Logf("IPv4 D=%d: %.0f allocations per Partition on a fresh Analysis (ceiling %.0f)", tc.degree, got, tc.ceiling)
		if got > tc.ceiling {
			t.Errorf("IPv4 D=%d: %.0f allocations per Partition, over the budget of %.0f", tc.degree, got, tc.ceiling)
		}
		warm, _ := bytes(func() {
			for i := 0; i < runs; i++ {
				partition(warmA, tc.degree)
			}
		})
		warm /= runs
		t.Logf("IPv4 D=%d: %.0f bytes per Partition on a fresh Analysis (ceiling %.0f), %.0f on a warm one", tc.degree, cold, tc.maxB, warm)
		if cold > tc.maxB {
			t.Errorf("IPv4 D=%d: %.0f bytes per Partition, over the budget of %.0f", tc.degree, cold, tc.maxB)
		}
		if warm > 0.9*cold {
			t.Errorf("IPv4 D=%d: %.0f bytes per Partition on a warm Analysis, not under 90 %% of a fresh one's %.0f", tc.degree, warm, cold)
		}
	}
}

// TestCompileAnalyzeAllocBudget counts what the front half of the compiler
// allocates for one pass over the six distinct PPS sources: ppc.Compile and
// Analyze of each. Before the analysis tables became dense it read 68264
// allocations per pass (68243 as this test counts them), and 57139 with only
// the lexer's operator tables built once (go1.24.0); with them it reads 14171
// (14194 under -race). The ceiling sits a third above that, so it catches a
// return of per-token tables, per-instruction maps or edge-at-a-time
// adjacency long before it catches noise, and well under the 40000 the
// change was held to.
func TestCompileAnalyzeAllocBudget(t *testing.T) {
	var srcs []string
	for _, name := range []string{"RX", "IPv4", "Scheduler", "QM", "TX", "IP(v4)"} {
		p, _ := netbench.ByName(name)
		srcs = append(srcs, p.Source)
	}
	const ceiling = 19000
	got := testing.AllocsPerRun(5, func() {
		for _, src := range srcs {
			prog, err := ppc.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := core.Analyze(prog, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("six PPS: %.0f allocations per compile+analyze pass (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Errorf("six PPS: %.0f allocations per compile+analyze pass, over the budget of %d", got, ceiling)
	}
}
