package npsim

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/interp"
	"repro/internal/ppc"
)

const simSrc = `pps P { loop {
	var n = pkt_rx();
	var a = n * 3 + 1;
	var b = a ^ 0x7F;
	var c = b * b + a;
	var d = c % 251;
	trace(d);
} }`

func partition(t *testing.T, src string, d int) *core.Result {
	t.Helper()
	prog, err := ppc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: d})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func packets(n int) [][]byte {
	ps := make([][]byte, n)
	for i := range ps {
		ps[i] = []byte{byte(i + 1), byte(i * 3), 0xAB}
	}
	return ps
}

func TestSimulateMatchesSequentialTrace(t *testing.T) {
	res := partition(t, simSrc, 3)
	prog, _ := ppc.Compile(simSrc)
	iters := 20

	w1 := interp.NewWorld(packets(iters))
	seq, err := interp.RunSequential(prog, w1, iters)
	if err != nil {
		t.Fatal(err)
	}
	w2 := interp.NewWorld(packets(iters))
	sim, err := Simulate(res.Stages, w2, iters, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if diff := interp.TraceEqual(seq, sim.Trace); diff != "" {
		t.Fatalf("simulated behaviour differs: %s", diff)
	}
}

func TestPipelineThroughputBeatsSequential(t *testing.T) {
	iters := 200
	res1 := partition(t, simSrc, 1)
	res4 := partition(t, simSrc, 4)

	s1, err := Simulate(res1.Stages, interp.NewWorld(packets(iters)), iters, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s4, err := Simulate(res4.Stages, interp.NewWorld(packets(iters)), iters, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s4.CyclesPerPacket >= s1.CyclesPerPacket {
		t.Errorf("4-stage pipeline (%.1f cyc/pkt) not faster than sequential (%.1f cyc/pkt)",
			s4.CyclesPerPacket, s1.CyclesPerPacket)
	}
}

func TestScratchRingSlowerThanNN(t *testing.T) {
	iters := 100
	res := partition(t, simSrc, 3)
	nn := DefaultConfig()
	scratch := DefaultConfig()
	scratch.Channel = costmodel.ScratchRing

	a, err := Simulate(res.Stages, interp.NewWorld(packets(iters)), iters, nn)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(res.Stages, interp.NewWorld(packets(iters)), iters, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if b.CyclesPerPacket <= a.CyclesPerPacket {
		t.Errorf("scratch rings (%.1f) should cost more than NN rings (%.1f)",
			b.CyclesPerPacket, a.CyclesPerPacket)
	}
}

func TestBackpressureWithTinyRings(t *testing.T) {
	iters := 100
	res := partition(t, simSrc, 3)
	small := DefaultConfig()
	small.RingCapacity = 1
	big := DefaultConfig()
	big.RingCapacity = 64
	a, err := Simulate(res.Stages, interp.NewWorld(packets(iters)), iters, small)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(res.Stages, interp.NewWorld(packets(iters)), iters, big)
	if err != nil {
		t.Fatal(err)
	}
	if a.CyclesPerPacket < b.CyclesPerPacket {
		t.Errorf("tiny rings (%.2f cyc/pkt) should not beat big rings (%.2f cyc/pkt)",
			a.CyclesPerPacket, b.CyclesPerPacket)
	}
	if a.Makespan < b.Makespan {
		t.Error("backpressure should not shorten the makespan")
	}
}

func TestStageMetrics(t *testing.T) {
	iters := 50
	res := partition(t, simSrc, 3)
	s, err := Simulate(res.Stages, interp.NewWorld(packets(iters)), iters, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.StageBusy) != 3 || len(s.StageService) != 3 {
		t.Fatal("per-stage metrics missing")
	}
	for k, b := range s.StageBusy {
		if b < 0 || b > 1.0001 {
			t.Errorf("stage %d busy fraction %f out of range", k, b)
		}
		if s.StageService[k] <= 0 {
			t.Errorf("stage %d service time %f not positive", k, s.StageService[k])
		}
	}
	if s.Makespan <= 0 || s.Throughput <= 0 {
		t.Error("missing aggregate metrics")
	}
}

// TestZeroIterations: both simulators time nothing at zero iterations and
// return an empty result carrying the world's trace, instead of indexing the
// last iteration.
func TestZeroIterations(t *testing.T) {
	res := partition(t, simSrc, 2)
	w := interp.NewWorld(packets(4))
	s, err := Simulate(res.Stages, w, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Iterations != 0 || s.Makespan != 0 || s.CyclesPerPacket != 0 || len(s.Trace) != len(w.Trace) ||
		!slices.Equal(s.StageBusy, []float64{0, 0}) || !slices.Equal(s.StageService, []float64{0, 0}) {
		t.Errorf("Simulate at zero iterations: %+v", s)
	}
	th, err := SimulateThreads(res.Stages, w, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if th.Iterations != 0 || th.Makespan != 0 || th.CyclesPerPacket != 0 || len(th.Trace) != len(w.Trace) ||
		!slices.Equal(th.IssueBusy, []float64{0, 0}) || !slices.Equal(th.AvgThreadsBusy, []float64{0, 0}) {
		t.Errorf("SimulateThreads at zero iterations: %+v", th)
	}
}

func TestEmptyPipelineRejected(t *testing.T) {
	if _, err := Simulate(nil, interp.NewWorld(nil), 1, DefaultConfig()); err == nil {
		t.Error("empty pipeline accepted")
	}
}
