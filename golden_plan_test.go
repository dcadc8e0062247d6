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

// setCores sets GOMAXPROCS — the core count the fusion valuator plans for
// and Serve runs on — to cores until t ends, so a plan does not depend on
// the host.
func setCores(t *testing.T, cores int) {
	prev := runtime.GOMAXPROCS(cores)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// renderPlan serializes the fusion-relevant face of a Plan: the realized
// shape, the per-stage weights the valuator saw, which cuts it fused, the
// units served with the price of exactly those programs, and the stated
// per-cut rationale. Everything here is a pure function of the
// program, the options, and the pinned core count — no measured times —
// so the rendering must be byte-stable across runs and machines.
func renderPlan(p *repro.Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "degree %d batch %d shards %d\n", p.Degree, p.Batch, p.Shards)
	fmt.Fprintf(&b, "stage weights %v\n", p.StageWeights)
	fmt.Fprintf(&b, "fused cuts %v\n", p.FusedCuts)
	fmt.Fprintf(&b, "units %s predicted %.0f ns/pkt\n", p.Units(), p.PredictedNsPerPkt)
	for _, why := range p.FusionWhy {
		fmt.Fprintf(&b, "  %s\n", why)
	}
	return b.String()
}

// TestPlanFusionGolden locks down which cuts the fusion valuator fuses —
// and the exact arithmetic it states for each — for a fixed program under
// pinned core counts. One core must fuse everything (rings are pure tax
// with no parallelism to buy), and so must as many cores as there are
// lanes; a generous core budget must justify every verdict it makes in the
// rationale; FusionOff must record nothing.
// Regenerate with: go test . -run TestPlanFusionGolden -update
func TestPlanFusionGolden(t *testing.T) {
	prog, err := repro.Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		cores int
		opts  []repro.Option
	}{
		{"d3_1core", 1, []repro.Option{repro.WithStages(3)}},
		{"d3_8core", 8, []repro.Option{repro.WithStages(3)}},
		{"d4_1core", 1, []repro.Option{repro.WithStages(4)}},
		{"d3_off", 1, []repro.Option{repro.WithStages(3), repro.WithFusion(repro.FusionOff)}},
		// Two lanes: on two cores they already own both, so every ring inside
		// a lane is pure tax; on eight, each kept ring must say what it buys.
		{"d4_p2_2core", 2, []repro.Option{repro.WithStages(4), repro.WithShards(2), repro.WithBatch(64)}},
		{"d4_p2_8core", 8, []repro.Option{repro.WithStages(4), repro.WithShards(2), repro.WithBatch(64)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setCores(t, tc.cores)
			pipe, err := repro.Partition(prog, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			plan := pipe.Plan()
			if strings.Contains(tc.name, "1core") && len(plan.FusedCuts) != plan.Degree-1 {
				t.Errorf("on one core every cut must fuse; got %v of %d cuts", plan.FusedCuts, plan.Degree-1)
			}
			if strings.HasSuffix(tc.name, "_off") && (len(plan.FusedCuts) != 0 || len(plan.FusionWhy) != 0) {
				t.Errorf("FusionOff must record no fusion: cuts %v why %v", plan.FusedCuts, plan.FusionWhy)
			}
			if tc.name == "d4_p2_2core" && len(plan.FusedCuts) != plan.Degree-1 {
				t.Errorf("two lanes on two cores must fuse every cut; got %v (%q)", plan.FusedCuts, plan.FusionWhy)
			}
			if tc.name == "d4_p2_8core" {
				for _, why := range plan.FusionWhy {
					if strings.HasPrefix(why, "keep") && !strings.Contains(why, "fused, on 8 core(s) shared by 2 lanes") {
						t.Errorf("a kept ring must state what it buys and for how many lanes: %q", why)
					}
				}
				if len(plan.FusedCuts) == plan.Degree-1 {
					t.Errorf("with six cores to spare some ring must pay for itself; got %q", plan.FusionWhy)
				}
			}
			got := renderPlan(plan)
			path := filepath.Join("testdata", "plan_"+tc.name+".golden")
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
