package repro

// Test-only seams. SetFusionCoresForTest pins the core budget the fusion
// valuator plans for, so golden Plan fixtures are host-independent; the
// returned func restores the real GOMAXPROCS-backed seam.
func SetFusionCoresForTest(cores int) (restore func()) {
	prev := fusionCores
	fusionCores = func() int { return cores }
	return func() { fusionCores = prev }
}

// PriceForTest is the adaptive loop's candidate prior before inversion:
// per-stage costs folded into units under a fuse mask and replica widths,
// priced by costmodel.Predict.
var PriceForTest = price

// DescribeOptionForTest reports what an Option says about itself: its name
// and which entry points past the analysis phase accept it.
func DescribeOptionForTest(o Option) (name string, run, simulate, serve bool) {
	return o.name, o.scope&inRun != 0, o.scope&inSimulate != 0, o.scope&inServe != 0
}
