package repro

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/runtime/fault"
)

// WithFaultsForTest is how this package's tests reach the runtime's fault
// seam (runtime.Config.Faults): a schedule of stage stalls and panics. The
// public API has no such option.
func WithFaultsForTest(p *fault.Plan) Option {
	return Option{"WithFaultsForTest", inServe, func(c *config) { c.serve.Faults = p }}
}

// Test-only seams. SetFusionCoresForTest pins the core budget the fusion
// valuator plans for, so golden Plan fixtures are host-independent; the
// returned func restores the real GOMAXPROCS-backed seam.
func SetFusionCoresForTest(cores int) (restore func()) {
	prev := fusionCores
	fusionCores = func() int { return cores }
	return func() { fusionCores = prev }
}

// SetFuseMaskForTest replaces the fusion valuator with one that asks for
// exactly the cuts mask names (mask[k]: fuse the cut between stages k+1 and
// k+2; short masks keep the rest), so a test can put any coarsening through
// Serve; the returned func restores the cost model's valuator.
func SetFuseMaskForTest(mask []bool) (restore func()) {
	prev := planFusion
	planFusion = func(stageNs, _ []float64, _ []int, _ float64, _ int) costmodel.FusionPlan {
		var fp costmodel.FusionPlan
		for k := 0; k+1 < len(stageNs); k++ {
			fuse := k < len(mask) && mask[k]
			fp.Decisions = append(fp.Decisions, costmodel.FusionDecision{Cut: k, Fuse: fuse, Why: fmt.Sprintf("forced: fuse %v", fuse)})
		}
		return fp
	}
	return func() { planFusion = prev }
}

// DescribeOptionForTest reports what an Option says about itself: its name
// and which entry points past the analysis phase accept it.
func DescribeOptionForTest(o Option) (name string, run, simulate, serve bool) {
	return o.name, o.scope&inRun != 0, o.scope&inSimulate != 0, o.scope&inServe != 0
}
