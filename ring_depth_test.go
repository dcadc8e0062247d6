package repro

import "testing"

// TestSimulateRingDepthIsServes: Serve and the simulators read one resolved
// ring depth, so a scratch-ring pipeline with no explicit capacity simulates
// the 64-entry rings it serves on, and an explicit capacity reaches both.
func TestSimulateRingDepthIsServes(t *testing.T) {
	prog := MustCompile(`pps P { loop {
		var n = pkt_rx();
		var m = n + 1;
		trace(m * 2);
	} }`)
	for _, tc := range []struct {
		kind     ChannelKind
		capacity int
		want     int
	}{
		{NNRing, 0, 8},
		{ScratchRing, 0, 64},
		{ScratchRing, 16, 16},
	} {
		pipe, err := Partition(prog, WithStages(2), WithRing(tc.kind, tc.capacity))
		if err != nil {
			t.Fatal(err)
		}
		serve, sim := pipe.cfg.serveConfig().RingCapacity, pipe.cfg.simConfig().RingCapacity
		if serve != tc.want || sim != tc.want {
			t.Errorf("WithRing(%v, %d): serve depth %d, simulate depth %d, want %d",
				tc.kind, tc.capacity, serve, sim, tc.want)
		}
	}
}
