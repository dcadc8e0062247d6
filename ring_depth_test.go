package repro

import "testing"

// TestServeRingDepth: Serve resolves one ring depth from the partition's
// ring kind, so a scratch-ring pipeline with no explicit capacity serves on
// 64-entry rings, and an explicit capacity wins.
func TestServeRingDepth(t *testing.T) {
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
		if got := pipe.cfg.serveConfig().RingCapacity; got != tc.want {
			t.Errorf("WithRing(%v, %d): serve depth %d, want %d", tc.kind, tc.capacity, got, tc.want)
		}
	}
}
