package runtime_test

// Cross-realization equivalence matrix for stage fusion: for every
// netbench PPS, every pipeline depth, every shard width, and every fusion
// mask shape (none, all, alternating), the served trace must stay
// byte-identical to the sequential oracle and the per-stage ledger exact.
// A fused cut is an un-made cut: the fused points serve the cut coarsened by
// the mask (CoarseLayout, export_test.go), one program per run of fused
// stages, and report under the cut's stage numbers — so the whole matrix
// shares one oracle per (app, traffic) point. The facade's own matrix
// (fusion_repro_test.go) sweeps every mask through Serve; this one holds the
// runtime to the same points it was held to when it fused stages itself.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/interp"
	"repro/internal/netbench"
	"repro/internal/runtime"
)

// fuseShapes are the fusion requests of the matrix: "none" fuses nothing,
// "all" asks for every cut, "odd" every other cut — exercising units of
// mixed width against lone stages in one pipeline. CoarseLayout ignores
// the bits past a cut's last.
var fuseShapes = []struct {
	name string
	fuse uint64
}{{"none", 0}, {"all", ^uint64(0)}, {"odd", 0xAAAAAAAAAAAAAAAA}}

// TestFusionEquivalenceMatrix is the realization-independence tentpole
// check: allApps × {none, all, odd fusion} × D × P, each point's trace
// byte-identical to the oracle, each point's packet accounting exact.
func TestFusionEquivalenceMatrix(t *testing.T) {
	const n = 48
	for _, pps := range allApps() {
		prog, err := pps.Compile()
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		a, err := core.Analyze(prog, nil)
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		traffic := pps.Traffic(n)
		seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
		if err != nil {
			t.Fatalf("%s: sequential: %v", pps.Name, err)
		}
		for _, d := range []int{2, 3, 4} {
			res, err := a.Partition(core.Options{Stages: d})
			if err != nil {
				t.Fatalf("%s D=%d: %v", pps.Name, d, err)
			}
			for _, shards := range []int{1, 2, 4} {
				for _, shape := range fuseShapes {
					name := fmt.Sprintf("%s/D=%d/P=%d/fuse=%s", pps.Name, d, shards, shape.name)
					world := netbench.NewWorld(nil)
					cfg := runtime.Config{}
					cfg.Batch = 4
					cfg.Shards = shards
					l, err := runtime.CoarseLayout(res, shape.fuse, true, cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					m, err := l.Serve(context.Background(), world, runtime.Packets(traffic))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if m.Packets != n {
						t.Errorf("%s: served %d packets, want %d", name, m.Packets, n)
					}
					if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
						t.Errorf("%s: trace diverges from oracle: %s", name, diff)
					}
					if len(m.Stages) != d {
						t.Errorf("%s: %d stage entries, want %d", name, len(m.Stages), d)
					}
					for _, s := range m.Stages {
						if s.FusedInto == 0 && (s.In != n || s.Out != n) {
							t.Errorf("%s: stage %d counters in=%d out=%d, want %d",
								name, s.Stage, s.In, s.Out, n)
						}
					}
				}
			}
		}
	}
}

// TestFusionFullPipelineIsSequentialShape fuses every cut of a deep
// pipeline down to one unit: a single program serves all four stages, the
// trace must match the oracle, no ring counters may move (there are no
// rings left to stall on), and the report still has the cut's four entries —
// stage 1 carrying the counters, stages 2..4 naming it.
func TestFusionFullPipelineIsSequentialShape(t *testing.T) {
	const n = 96
	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 4})
	if err != nil {
		t.Fatal(err)
	}
	traffic := pps.Traffic(n)
	seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runtime.Config{}
	cfg.Batch = 8
	l, err := runtime.CoarseLayout(res, 0b111, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(l.Stages()); got != 1 {
		t.Fatalf("fully fused cut serves %d programs, want 1", got)
	}
	m, err := l.Serve(context.Background(), netbench.NewWorld(nil), runtime.Packets(traffic))
	if err != nil {
		t.Fatal(err)
	}
	if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
		t.Fatalf("fully fused trace diverges: %s", diff)
	}
	if len(m.Stages) != 4 {
		t.Fatalf("%d stage entries, want 4", len(m.Stages))
	}
	for k, s := range m.Stages {
		if s.Stalls != 0 {
			t.Errorf("stage %d counted %d ring stalls in a fully fused pipeline", s.Stage, s.Stalls)
		}
		if k == 0 && (s.In != n || s.Out != n || s.FusedInto != 0) {
			t.Errorf("stage 1 counters in=%d out=%d fused into %d, want %d, %d, 0", s.In, s.Out, s.FusedInto, n, n)
		}
		if k > 0 && (s.Stage != k+1 || s.FusedInto != 1 || s.In != 0) {
			t.Errorf("stage entry %d: %+v, want folded into stage 1", k+1, s)
		}
	}
}

// TestFusionMaskOversizedAndMisaligned checks the defensive edges: a mask
// longer than the cut list is truncated, and a cut whose sides differ in
// replica width (every QM cut is a scatter or fan-in junction at P=4) keeps
// its ring when alignment is asked for and is coarsened across when it is
// not — the merged program then replicates as its own state allows, never an
// invalid topology. NewCoarseLayout itself takes the mask its programs were
// coarsened by and refuses one naming a cut they do not have.
func TestFusionMaskOversizedAndMisaligned(t *testing.T) {
	const n = 32
	const over = 0xFF
	for _, tc := range []struct {
		app string
		d   int
	}{{"IPv4", 2}, {"QM", 4}} {
		pps, _ := netbench.ByName(tc.app)
		prog, err := pps.Compile()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Partition(prog, core.Options{Stages: tc.d})
		if err != nil {
			t.Fatal(err)
		}
		traffic := pps.Traffic(n)
		seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
		if err != nil {
			t.Fatal(err)
		}
		cfg := runtime.Config{}
		cfg.Shards = 4
		if _, err := runtime.NewCoarseLayout(res.Stages, 1<<tc.d, cfg); !errors.Is(err, errs.ErrBadOption) {
			t.Errorf("%s: a fuse mask past the last cut: err = %v, want ErrBadOption", tc.app, err)
		}
		for _, aligned := range []bool{true, false} {
			l, err := runtime.CoarseLayout(res, over, aligned, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := 1
			if tc.app == "QM" && aligned {
				want = tc.d // every junction kept
			}
			if got := len(l.Stages()); got != want {
				t.Errorf("%s aligned=%v: %d programs, want %d", tc.app, aligned, got, want)
			}
			m, err := l.Serve(context.Background(), netbench.NewWorld(nil), runtime.Packets(traffic))
			if err != nil {
				t.Fatal(err)
			}
			if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
				t.Fatalf("%s aligned=%v: trace diverges with oversized mask: %s", tc.app, aligned, diff)
			}
			if m.Packets != n || len(m.Stages) != tc.d {
				t.Fatalf("%s aligned=%v: served %d packets over %d stage entries, want %d over %d",
					tc.app, aligned, m.Packets, len(m.Stages), n, tc.d)
			}
		}
	}
}
