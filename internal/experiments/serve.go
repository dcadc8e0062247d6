package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/netbench"
	"repro/internal/runtime"
)

// ServePoint is one host-throughput measurement: a PPS partitioned Degree
// ways, streamed through the goroutine-per-stage runtime with Batch
// iterations per ring entry.
type ServePoint struct {
	PPS    string `json:"pps"`
	Degree int    `json:"degree"`
	Batch  int    `json:"batch"`
	// Shards is the pipeline replica width the point ran with.
	Shards  int     `json:"shards,omitempty"`
	Packets int64   `json:"packets"`
	NsTotal int64   `json:"ns_total"`
	PktPerS float64 `json:"pkt_per_s"`
	// Speedup is measured throughput relative to the Degree=1, Batch=1
	// point of the same PPS (the single-goroutine host baseline).
	Speedup float64 `json:"speedup_vs_seq"`
	// Fused marks the stage-fusion realization of the same shape: every
	// aligned cut fused (runtime.Config.FuseCuts all true), so handoffs
	// are in-goroutine word copies instead of ring entries.
	Fused bool `json:"fused,omitempty"`
}

// ServeThroughput measures the host-native streaming runtime: the named
// PPS is partitioned at every degree in degrees and served packets
// minimum-size packets at every batch size in batches and every shard
// width in shardCounts (the 5-tuple flow key routes lanes). The first (degree, batch, shard) triple with
// Degree=1 and the sweep's first batch and shard values anchors the
// Speedup column, so degrees and shardCounts should include 1. Points are
// verified against the sequential oracle before being timed.
func ServeThroughput(name string, degrees, batches, shardCounts []int, packets int) ([]ServePoint, error) {
	pps, ok := netbench.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown PPS %q", name)
	}
	prog, err := pps.Compile()
	if err != nil {
		return nil, err
	}
	a, err := core.Analyze(prog, nil)
	if err != nil {
		return nil, err
	}

	traffic := pps.Traffic(256)
	verify := pps.Traffic(64)
	seq, err := interp.RunSequential(prog.Clone(), netbench.NewWorld(verify), len(verify))
	if err != nil {
		return nil, err
	}

	if len(shardCounts) == 0 {
		shardCounts = []int{1}
	}
	var pts []ServePoint
	var base float64
	for _, d := range degrees {
		res, err := a.Partition(core.Options{Stages: d})
		if err != nil {
			return nil, err
		}
		for _, batch := range batches {
			for _, shards := range shardCounts {
				// Each shape is measured twice past degree 1: fully ringed,
				// and with every aligned cut fused (all-true mask — host-
				// independent, so sweeps compare like against like).
				for _, fused := range []bool{false, true} {
					if fused && d == 1 {
						continue
					}
					cfg := runtime.Config{Batch: batch, Shards: shards, ShardKey: netbench.FlowKey}
					if fused {
						cfg.FuseCuts = make([]bool, d-1)
						for k := range cfg.FuseCuts {
							cfg.FuseCuts[k] = true
						}
					}

					// Behaviour first: the timed configuration must match the oracle.
					vw := netbench.NewWorld(nil)
					vm, err := runtime.Serve(context.Background(), res.Stages, vw, runtime.Packets(verify), cfg)
					if err != nil {
						return nil, fmt.Errorf("%s D=%d batch=%d P=%d fused=%t: %w", name, d, batch, shards, fused, err)
					}
					if diff := interp.TraceEqual(seq, vm.Trace); diff != "" {
						return nil, fmt.Errorf("%s D=%d batch=%d P=%d fused=%t diverged: %s", name, d, batch, shards, fused, diff)
					}

					m, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil),
						runtime.Repeat(traffic, packets), cfg)
					if err != nil {
						return nil, fmt.Errorf("%s D=%d batch=%d P=%d fused=%t: %w", name, d, batch, shards, fused, err)
					}
					p := ServePoint{
						PPS:     name,
						Degree:  d,
						Batch:   batch,
						Shards:  shards,
						Packets: m.Packets,
						NsTotal: m.Elapsed.Nanoseconds(),
						PktPerS: m.PacketsPerSecond(),
						Fused:   fused,
					}
					if d == 1 && batch == batches[0] && shards == shardCounts[0] {
						base = p.PktPerS
					}
					if base > 0 {
						p.Speedup = p.PktPerS / base
					}
					pts = append(pts, p)
				}
			}
		}
	}
	return pts, nil
}
