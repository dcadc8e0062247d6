package interp_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
)

// TestChainAllocBudget: a Chain hands live sets between two buffers of its
// own and resets one IterCtx, so the IPv4 PPS cut at D=4 allocates per packet,
// in the steady state, exactly what the unpartitioned program does — the
// packet copies of pkt_rx and pkt_send and the trace's growth — and no live
// set. A whole RunPipeline of 64 packets (runners, frames, store, trace
// included) is held under a byte ceiling about 10 % above the 22,328 it
// reads (go1.24.0, with or without -race); it read 68,592 when each stage's
// frame spanned the original function's registers and each handoff
// allocated its live set.
func TestChainAllocBudget(t *testing.T) {
	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	cut := func(d int) []*ir.Program {
		res, err := a.Partition(core.Options{Stages: d})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stages
	}
	one, four := cut(1), cut(4)
	pkts := pps.Traffic(64)

	perPacket := func(stages []*ir.Program) float64 {
		var stream [][]byte
		for range 4 {
			stream = append(stream, pkts...)
		}
		c := interp.Chain[*interp.Runner]{Stages: interp.NewStageRunners(stages, netbench.NewWorld(stream))}
		if err := c.Run(len(pkts)); err != nil { // warm: frames, locals, buffers
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if err := c.Run(1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if seq, chain := perPacket(one), perPacket(four); chain != seq {
		t.Errorf("D=4 chain allocates %.0f times a packet, the unpartitioned program %.0f", chain, seq)
	}

	const runs, ceiling = 20, 24_500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := interp.RunPipeline(four, netbench.NewWorld(pkts), len(pkts)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("IPv4 D=4: %.0f bytes per RunPipeline of %d packets (ceiling %d)", got, len(pkts), ceiling)
	if got > ceiling {
		t.Errorf("IPv4 D=4: %.0f bytes per RunPipeline of %d packets, over the budget of %d", got, len(pkts), ceiling)
	}
}
