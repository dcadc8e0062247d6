package runtime_test

// Black-box coverage of sharded serving through the public Config surface:
// merged-trace byte-identity against the sequential oracle for every
// benchmark pipeline at several widths, and the per-flow order property
// the replicas must preserve however their lanes interleave.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/netbench"
	"repro/internal/ppc"
	"repro/internal/runtime"
)

// TestShardedServeMatchesOracle is the sharded tentpole check: for every
// benchmark PPS, at D in {2,4} and P in {2,4}, batched and unbatched, the
// merged trace must be byte-identical to the sequential oracle's — whether
// the plan replicates everything (stateless pipelines), nothing
// (cross-flow pipelines), or alternates through scatter and fan-in
// junctions (QM at D=4).
func TestShardedServeMatchesOracle(t *testing.T) {
	const n = 48
	for _, pps := range allApps() {
		prog, err := pps.Compile()
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		a, err := core.Analyze(prog, nil)
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		traffic := pps.Traffic(n)
		seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
		if err != nil {
			t.Fatalf("%s: sequential: %v", pps.Name, err)
		}
		for _, d := range []int{2, 4} {
			res, err := a.Partition(core.Options{Stages: d})
			if err != nil {
				t.Fatalf("%s D=%d: %v", pps.Name, d, err)
			}
			for _, p := range []int{2, 4} {
				for _, batch := range []int{1, 8} {
					name := fmt.Sprintf("%s/D=%d/P=%d/batch=%d", pps.Name, d, p, batch)
					world := netbench.NewWorld(nil)
					cfg := runtime.Config{}
					cfg.Batch = batch
					cfg.Shards = p
					m, err := runtime.Serve(context.Background(), res.Stages, world, runtime.Packets(traffic), cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if m.Packets != n {
						t.Errorf("%s: served %d packets, want %d", name, m.Packets, n)
					}
					if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
						t.Errorf("%s: trace diverges from oracle: %s", name, diff)
					}
					if diff := interp.TraceEqual(seq, world.Trace); diff != "" {
						t.Errorf("%s: world trace diverges: %s", name, diff)
					}
					if rep := m.Faults; rep.Accounted() != m.Stages[0].In {
						t.Errorf("%s: accounting hole: %s", name, rep)
					}
					for _, s := range m.Stages {
						if s.In != n || s.Out != n {
							t.Errorf("%s: stage %d counters in=%d out=%d, want %d",
								name, s.Stage, s.In, s.Out, n)
						}
						if s.Replicas < 1 || s.Replicas > p {
							t.Errorf("%s: stage %d reports %d replicas", name, s.Stage, s.Replicas)
						}
					}
				}
			}
		}
	}
}

// flowSeqSrc traces, for every packet, its flow id (byte 0) and a per-flow
// sequence number (bytes 1-2) in one value — the probe the per-flow order
// property reads back.
const flowSeqSrc = `
pps FlowSeq {
	loop {
		var len = pkt_rx();
		var flow = pkt_byte(0);
		var seq = pkt_byte(1) * 256 + pkt_byte(2);
		trace(flow * 65536 + seq);
	}
}`

// TestShardedPerFlowOrder is the order-preservation property test: packets
// carry a per-flow sequence number, flows are interleaved adversarially,
// and at every shard width the served trace must (a) keep each flow's
// sequence numbers strictly increasing and (b) stay byte-identical to the
// sequential oracle — the fan-in restores global order, which subsumes
// per-flow order.
func TestShardedPerFlowOrder(t *testing.T) {
	const flows, perFlow = 6, 40
	prog, err := ppc.Compile(flowSeqSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog.Clone(), core.Options{Stages: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave flows unevenly: flow f emits its packets in bursts of f+1.
	var traffic [][]byte
	next := make([]int, flows)
	for len(traffic) < flows*perFlow {
		for f := 0; f < flows; f++ {
			for b := 0; b <= f && next[f] < perFlow; b++ {
				s := next[f]
				next[f]++
				traffic = append(traffic, []byte{byte(f), byte(s >> 8), byte(s), 3, 1, 4, 1, 5})
			}
		}
	}
	n := len(traffic)
	seq, err := interp.RunSequential(prog, interp.NewWorld(traffic), n)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		cfg := runtime.Config{}
		cfg.Shards = p
		m, err := runtime.Serve(context.Background(), res.Stages, interp.NewWorld(nil),
			runtime.Packets(traffic), cfg)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
			t.Fatalf("P=%d: trace diverges from oracle: %s", p, diff)
		}
		lastSeq := make([]int64, flows)
		for f := range lastSeq {
			lastSeq[f] = -1
		}
		for _, ev := range m.Trace {
			if ev.Kind != interp.EvTrace {
				continue
			}
			f, s := ev.Val>>16, ev.Val&0xffff
			if f < 0 || f >= flows {
				t.Fatalf("P=%d: trace value %d names flow %d", p, ev.Val, f)
			}
			if s != lastSeq[f]+1 {
				t.Fatalf("P=%d: flow %d jumped from seq %d to %d", p, f, lastSeq[f], s)
			}
			lastSeq[f] = s
		}
		for f, s := range lastSeq {
			if s != perFlow-1 {
				t.Fatalf("P=%d: flow %d ended at seq %d, want %d", p, f, s, perFlow-1)
			}
		}
	}
}
