package repro_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro"
)

var updatePlans = flag.Bool("update", false, "rewrite the golden Plan fixtures")

// setCores sets GOMAXPROCS — the core count Serve runs on — to cores until
// t ends.
func setCores(t *testing.T, cores int) {
	prev := runtime.GOMAXPROCS(cores)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// renderPlan serializes the fusion-relevant face of a Plan: the realized
// shape, the per-stage weights, which cuts were fused, the units served and
// the stated per-cut reason.
// Everything here is a pure function of the program, the options, and the
// pinned core count — no measured times — so the rendering must be
// byte-stable across runs and machines.
func renderPlan(p *repro.Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "degree %d batch %d shards %d\n", p.Degree, p.Batch, p.Shards)
	fmt.Fprintf(&b, "stage weights %v\n", p.StageWeights)
	fmt.Fprintf(&b, "fused cuts %v\n", p.FusedCuts)
	fmt.Fprintf(&b, "units %s\n", p.Units())
	for _, why := range p.FusionWhy {
		fmt.Fprintf(&b, "  %s\n", why)
	}
	return b.String()
}

// TestPlanFusionGolden locks down which cuts FusionAuto fuses — and the
// reason it states for each — for a fixed program under pinned core counts.
// The program keeps no state, so every cut fuses at any core count and
// width: the 8-core plans are held to the same fixtures as their 1- and
// 2-core siblings. FusionOff must record nothing.
// Regenerate with: go test . -run TestPlanFusionGolden -update
func TestPlanFusionGolden(t *testing.T) {
	prog, err := repro.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, golden string
		cores        int
		opts         []repro.Option
	}{
		{"d3_1core", "d3_1core", 1, []repro.Option{repro.WithStages(3)}},
		{"d3_8core", "d3_1core", 8, []repro.Option{repro.WithStages(3)}},
		{"d4_1core", "d4_1core", 1, []repro.Option{repro.WithStages(4)}},
		{"d3_off", "d3_off", 1, []repro.Option{repro.WithStages(3), repro.WithFusion(repro.FusionOff)}},
		{"d4_p2_2core", "d4_p2_2core", 2, []repro.Option{repro.WithStages(4), repro.WithShards(2), repro.WithBatch(64)}},
		{"d4_p2_8core", "d4_p2_2core", 8, []repro.Option{repro.WithStages(4), repro.WithShards(2), repro.WithBatch(64)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setCores(t, tc.cores)
			pipe, err := repro.Partition(prog, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			plan := pipe.Plan()
			off := strings.HasSuffix(tc.name, "_off")
			if !off && len(plan.FusedCuts) != plan.Degree-1 {
				t.Errorf("no stage keeps state, so every cut must fuse; got %v (%q)", plan.FusedCuts, plan.FusionWhy)
			}
			if off && (len(plan.FusedCuts) != 0 || len(plan.FusionWhy) != 0) {
				t.Errorf("FusionOff must record no fusion: cuts %v why %v", plan.FusedCuts, plan.FusionWhy)
			}
			got := renderPlan(plan)
			path := filepath.Join("testdata", "plan_"+tc.golden+".golden")
			if *updatePlans {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got != string(want) {
				t.Errorf("plan drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}
