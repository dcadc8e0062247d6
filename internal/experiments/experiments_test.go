package experiments

import (
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/ir"
	"repro/internal/netbench"
	"repro/internal/ppc"
)

func TestMeasureDynamicSequential(t *testing.T) {
	prog, err := ppc.Compile(`pps P { loop {
		var n = pkt_rx();
		if (n > 1) { trace(rt_lookup(n)); } else { trace(0); }
	} }`)
	if err != nil {
		t.Fatal(err)
	}
	arch := costmodel.Default()
	w := netbench.NewWorld([][]byte{{1}, {2, 2}})
	d, err := MeasureDynamic([]*ir.Program{prog}, w, 2, arch, costmodel.NNRing)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 1 {
		t.Fatal("one stage expected")
	}
	// The worst iteration takes the lookup path: rt_lookup weight must be
	// included.
	if d[0].MaxTotal < int64(costmodel.Intrinsics["rt_lookup"].Weight) {
		t.Errorf("MaxTotal = %d, smaller than one rt_lookup", d[0].MaxTotal)
	}
	if d[0].MeanTot <= 0 || d[0].MeanTot > float64(d[0].MaxTotal) {
		t.Errorf("MeanTot = %f inconsistent with MaxTotal %d", d[0].MeanTot, d[0].MaxTotal)
	}
	if d[0].MaxTx != 0 {
		t.Error("sequential program has no transmission instructions")
	}
}

func TestDynamicSpeedupMath(t *testing.T) {
	seq := StageDemand{MaxTotal: 100}
	stages := []StageDemand{{MaxTotal: 20}, {MaxTotal: 50, MaxTx: 10}, {MaxTotal: 30}}
	speedup, overhead, longest := DynamicSpeedup(seq, stages)
	if longest != 1 {
		t.Errorf("longest = %d, want 1", longest)
	}
	if speedup != 2.0 {
		t.Errorf("speedup = %f, want 2", speedup)
	}
	if overhead != 0.25 {
		t.Errorf("overhead = %f, want 0.25 (10 tx / 40 proc)", overhead)
	}
}

func TestSweepShapesOnePPS(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	out, err := sweepAll(netbench.IPv4Forwarding()[1:2]) // the IPv4 PPS
	if err != nil {
		t.Fatal(err)
	}
	s := out[0]
	if len(s.Speedup) != len(Degrees) {
		t.Fatalf("series length %d", len(s.Speedup))
	}
	if s.Speedup[8] < 3.0 {
		t.Errorf("IPv4 speedup at degree 9 = %.2f, want >= 3", s.Speedup[8])
	}
	// Overhead grows (weakly) with degree past the start.
	if s.Overhead[1] > s.Overhead[9] {
		t.Errorf("overhead should grow with degree: %v", s.Overhead)
	}
}

func TestTablesRender(t *testing.T) {
	series := []Series{{
		PPS:      "X",
		Degrees:  Degrees,
		Speedup:  make([]float64, len(Degrees)),
		Overhead: make([]float64, len(Degrees)),
	}}
	sp := SpeedupTable("title", series)
	if !strings.Contains(sp, "title") || !strings.Contains(sp, "X") {
		t.Error("SpeedupTable misses title or series name")
	}
	ov := OverheadTable("t2", series)
	if !strings.Contains(ov, "t2") {
		t.Error("OverheadTable misses title")
	}
}

func TestAblationUnknownPPS(t *testing.T) {
	if _, err := AblationTransmission("nope", 2); err == nil {
		t.Error("unknown PPS accepted")
	}
	if _, err := AblationEpsilon("nope", 2, []float64{0.1}); err == nil {
		t.Error("unknown PPS accepted")
	}
	if _, err := AblationChannel("nope", 2); err == nil {
		t.Error("unknown PPS accepted")
	}
	if _, err := AblationWeightMode("nope", 2); err == nil {
		t.Error("unknown PPS accepted")
	}
	if _, err := SimThroughput("nope", []int{1}, 5); err == nil {
		t.Error("unknown PPS accepted")
	}
}

func TestAblationWeightModeImprovesLatencySkew(t *testing.T) {
	pts, err := AblationWeightMode("IPv4", 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatal("two modes expected")
	}
	instrs, latency := pts[0], pts[1]
	if instrs.Mode != costmodel.WeightInstrs || latency.Mode != costmodel.WeightLatency {
		t.Fatal("mode order wrong")
	}
	if latency.LatencySkew > instrs.LatencySkew {
		t.Errorf("latency mode should not worsen latency skew: %.3f vs %.3f",
			latency.LatencySkew, instrs.LatencySkew)
	}
	if latency.LatencySkew < 1.0 || instrs.LatencySkew < 1.0 {
		t.Error("skew below 1 is impossible")
	}
}

func TestAblationChannelOrdering(t *testing.T) {
	pts, err := AblationChannel("IPv4", 4)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Speedup < pts[1].Speedup {
		t.Errorf("NN rings (%.2f) should beat scratch rings (%.2f)", pts[0].Speedup, pts[1].Speedup)
	}
}

func TestAblationEpsilonCutCostMonotone(t *testing.T) {
	pts, err := AblationEpsilon("IPv4", 6, []float64{1.0 / 64, 1.0 / 2})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].CutCost < pts[1].CutCost {
		t.Errorf("tight ε should not give cheaper cuts: %d vs %d", pts[0].CutCost, pts[1].CutCost)
	}
}

func TestSimThroughputImproves(t *testing.T) {
	pts, err := SimThroughput("IPv4", []int{1, 6}, 120)
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].CyclesPerPacket >= pts[0].CyclesPerPacket {
		t.Errorf("6 stages (%.1f cyc/pkt) should beat 1 stage (%.1f cyc/pkt)",
			pts[1].CyclesPerPacket, pts[0].CyclesPerPacket)
	}
	if pts[1].SpeedupDynamic <= 1 {
		t.Error("dynamic speedup missing")
	}
}

func TestThreadLatencyHidingMonotone(t *testing.T) {
	pts, err := ThreadLatencyHiding("IPv4", 2, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].CyclesPerPacket > pts[i-1].CyclesPerPacket {
			t.Errorf("more threads must not slow the pipeline: %d threads %.1f vs %d threads %.1f",
				pts[i].Threads, pts[i].CyclesPerPacket, pts[i-1].Threads, pts[i-1].CyclesPerPacket)
		}
	}
	if pts[3].CyclesPerPacket >= pts[0].CyclesPerPacket {
		t.Error("8 threads should clearly beat 1 thread on a memory-heavy PPS")
	}
}
