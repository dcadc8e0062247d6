package repro

import "repro/internal/runtime/fault"

// WithFaultsForTest is how this package's tests reach the runtime's fault
// seam (runtime.Config.Faults): a schedule of stage stalls and panics. The
// public API has no such option.
func WithFaultsForTest(p *fault.Plan) Option {
	return Option{"WithFaultsForTest", inServe, func(c *config) { c.serve.Faults = p }}
}

// WithFuseMaskForTest serves exactly the cuts mask names un-made (bit k: the
// cut between stages k+1 and k+2) where replica widths align, in place of
// FusionAuto's verdict, so a test can put any coarsening through Serve.
func WithFuseMaskForTest(mask uint64) Option {
	return Option{"WithFuseMaskForTest", inServe, func(c *config) { c.fuse = &mask }}
}

// DescribeOptionForTest reports what an Option says about itself: its name
// and which entry points past the analysis phase accept it.
func DescribeOptionForTest(o Option) (name string, run, serve bool) {
	return o.name, o.scope&inRun != 0, o.scope&inServe != 0
}
