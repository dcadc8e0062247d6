package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/interp"
	"repro/internal/netbench"
	"repro/internal/runtime"
	"repro/internal/runtime/fault"
)

// FlowsCaptureConfig is the generator profile behind testdata/flows.pcap:
// 4096 packets from 32 concurrent heavy-tailed flows, the default bursty
// arrival process, seed 42. The checked-in capture is Records of exactly
// this config anchored at FlowsCaptureBase, so replaying the file and
// running the generator produce byte-identical packet streams — which is
// what the replay-vs-synthetic table demonstrates.
func FlowsCaptureConfig() ingest.GenConfig {
	cfg := ingest.DefaultGenConfig()
	cfg.Seed = 42
	cfg.Packets = 4096
	cfg.Flows = 32
	return cfg
}

// FlowsCaptureBase anchors the capture's record timestamps (the paper's
// conference week; any fixed instant works, a changing one would churn
// the fixture).
func FlowsCaptureBase() time.Time {
	return time.Date(2005, 6, 12, 9, 0, 0, 0, time.UTC)
}

// ReplayReport is the pcap-replay experiment's result: one capture file
// streamed through the full sharded+fused pipeline, verified against the
// sequential oracle, then timed — beside a matched-size synthetic
// generator run for the replay-vs-synthetic comparison.
type ReplayReport struct {
	Pcap    string `json:"pcap"`
	Packets int64  `json:"packets_per_pass"`
	Bytes   int64  `json:"bytes_per_pass"`
	Loops   int    `json:"loops"`
	Degree  int    `json:"degree"`
	Shards  int    `json:"shards"`
	// ReplayPktPerS is the unpaced replay throughput over Loops passes;
	// SynthPktPerS is the generator producing the same number of packets
	// through the identical pipeline shape.
	ReplayPktPerS float64 `json:"replay_pkt_per_s"`
	SynthPktPerS  float64 `json:"synth_pkt_per_s"`
	// Verified confirms the replayed trace was byte-identical to the
	// sequential oracle over the decoded capture (the run fails before
	// timing otherwise, so a returned report always has it true).
	Verified bool `json:"verified"`
}

// Replay streams the capture at pcapPath through the named PPS
// partitioned 4 ways, sharded 4 wide behind the flow-hash dispatcher
// with every aligned cut fused — the deepest realization the repo
// serves — and first proves the served trace byte-identical to the
// sequential oracle over the same decoded packets. It then times an
// unpaced Loops-pass replay and a synthetic generator run of the same
// packet count for the replay-vs-synthetic table.
func Replay(name, pcapPath string, loops int) (*ReplayReport, error) {
	if loops < 1 {
		loops = 1
	}
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
	const degree, shards = 4, 4
	res, err := a.Partition(core.Options{Stages: degree})
	if err != nil {
		return nil, err
	}
	cfg := runtime.Config{Batch: 32, Shards: shards, ShardKey: netbench.FlowKey,
		FuseCuts: []bool{true, true, true}}

	src, err := ingest.OpenPcap(pcapPath, ingest.PcapOptions{})
	if err != nil {
		return nil, err
	}
	recs := src.Records()
	if len(recs) == 0 {
		return nil, fmt.Errorf("capture %s holds no packets", pcapPath)
	}
	pkts := make([][]byte, len(recs))
	var bytes int64
	for i, r := range recs {
		pkts[i] = r.Data
		bytes += int64(len(r.Data))
	}

	// Behaviour first: the decoded capture through the oracle, then the
	// same capture off the Source path through the full pipeline.
	seq, err := interp.RunSequential(prog.Clone(), netbench.NewWorld(pkts), len(pkts))
	if err != nil {
		return nil, err
	}
	vm, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil),
		ingest.NewFeeder(src, 32), cfg)
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", pcapPath, err)
	}
	if diff := interp.TraceEqual(seq, vm.Trace); diff != "" {
		return nil, fmt.Errorf("replay %s diverged from the sequential oracle: %s", pcapPath, diff)
	}

	// Timed replay: fresh source, Loops passes, as fast as the pipeline
	// pulls.
	timed, err := ingest.OpenPcap(pcapPath, ingest.PcapOptions{Loop: loops})
	if err != nil {
		return nil, err
	}
	rm, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil),
		ingest.NewFeeder(timed, 32), cfg)
	if err != nil {
		return nil, err
	}

	// The synthetic twin: the generator profile behind the capture,
	// scaled to the same total packet count.
	gcfg := FlowsCaptureConfig()
	gcfg.Packets = loops * len(recs)
	gen, err := ingest.NewGenerator(gcfg)
	if err != nil {
		return nil, err
	}
	gm, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil),
		ingest.NewFeeder(gen, 32), cfg)
	if err != nil {
		return nil, err
	}

	return &ReplayReport{
		Pcap:          pcapPath,
		Packets:       int64(len(recs)),
		Bytes:         bytes,
		Loops:         loops,
		Degree:        degree,
		Shards:        shards,
		ReplayPktPerS: rm.PacketsPerSecond(),
		SynthPktPerS:  gm.PacketsPerSecond(),
		Verified:      true,
	}, nil
}

// BurstPoint is one burst-resilience measurement: the bursty paced
// generator at one peak rate against one overload policy, with a
// deliberately slowed stage so bursts actually overrun a ring.
type BurstPoint struct {
	Policy   string  `json:"policy"`
	PeakRate float64 `json:"peak_rate_pkt_per_s"`
	Packets  int64   `json:"packets"`
	// Delivered/Shed/Degraded are the pipeline's loss accounting;
	// Delivered + Shed equals Packets on a drained run (degraded packets
	// are delivered with partial processing).
	Delivered int64 `json:"delivered"`
	Shed      int64 `json:"shed"`
	Degraded  int64 `json:"degraded"`
	// SourceDrops is the ingest boundary's drop counter. For the
	// in-process generator it is structurally zero: the only place this
	// traffic can be lost before the pipeline sees it is a kernel socket
	// buffer, and there is none here — see the EXPERIMENTS.md note on
	// what these counters can and cannot observe with a real socket.
	SourceDrops int64   `json:"source_drops"`
	PktPerS     float64 `json:"pkt_per_s"`
}

// BurstResilience sweeps burst intensity against the shedding overload
// policies: the bursty generator runs paced at each peak rate in peaks
// while stage 2 of a 4-stage pipeline is held 1ms every 64 iterations (a
// deterministic stall injection amortizing to ~16µs per packet, i.e. a
// ~60k pkt/s stage — amortized because sub-10µs sleeps overshoot by an
// order of magnitude on stock kernels), so bursts above the slowed
// stage's capacity saturate its inbound ring and the policy engages.
// Unsharded by design — OverloadShed is rejected under a sharded fan-in,
// and the point is to watch one pipeline's rings fill.
func BurstResilience(name string, peaks []float64, packets int) ([]BurstPoint, error) {
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
	res, err := a.Partition(core.Options{Stages: 4})
	if err != nil {
		return nil, err
	}
	var pts []BurstPoint
	for _, peak := range peaks {
		for _, policy := range []runtime.OverloadPolicy{runtime.OverloadShed, runtime.OverloadDegrade} {
			gcfg := ingest.DefaultGenConfig()
			gcfg.Packets = packets
			gcfg.PeakRate = peak
			gcfg.Paced = true
			gen, err := ingest.NewGenerator(gcfg)
			if err != nil {
				return nil, err
			}
			feeder := ingest.NewFeeder(gen, 8)
			cfg := runtime.Config{
				Batch:     4,
				Overload:  policy,
				Watermark: 1,
				Faults: &fault.Plan{Injections: []fault.Injection{
					{Kind: fault.Stall, Stage: 2, Every: 64, Sleep: time.Millisecond},
				}},
			}
			m, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil), feeder, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s peak=%.0f policy=%s: %w", name, peak, policy, err)
			}
			v := feeder.Stats().View()
			pts = append(pts, BurstPoint{
				Policy:      policy.String(),
				PeakRate:    peak,
				Packets:     m.Stages[0].In,
				Delivered:   m.Faults.Delivered,
				Shed:        m.Faults.Shed,
				Degraded:    m.Faults.Degraded,
				SourceDrops: v.Drops,
				PktPerS:     m.PacketsPerSecond(),
			})
		}
	}
	return pts, nil
}
