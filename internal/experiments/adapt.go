package experiments

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/netbench"
)

// This experiment exercises the adaptive serving loop through the public
// facade — deliberately, since the loop (probe → calibrate → re-cut →
// tune → commit) lives behind repro.Pipeline.Serve(WithAutotune) and the
// point is to show the closed loop end to end: hand a mis-tuned pipeline
// to Serve and let it find a configuration competitive with the best
// hand-picked point, without losing a packet or reordering a trace event.

// AdaptPoint is one measured configuration of the adapt experiment.
type AdaptPoint struct {
	Label   string  `json:"label"`
	Degree  int     `json:"degree"`
	Batch   int     `json:"batch"`
	Shards  int     `json:"shards"`
	PktPerS float64 `json:"pkt_per_s"`
}

// AdaptReport is the before/after outcome of the adapt experiment: the
// hand-picked configurations measured directly, the autotuner's committed
// choice re-measured on a fresh stream, and the calibration evidence.
type AdaptReport struct {
	PPS string `json:"pps"`
	// Hand holds the hand-picked reference configurations.
	Hand []AdaptPoint `json:"hand"`
	// Auto is the configuration the closed loop selected, measured fresh.
	Auto AdaptPoint `json:"auto"`
	// AdaptivePktPerS is the throughput of the adaptive serve itself —
	// probes, re-analysis and all — over its whole stream.
	AdaptivePktPerS float64 `json:"adaptive_pkt_per_s"`
	// Calibrated, R2, NsPerWeight summarize the cost-model fit behind the
	// decision; Why is the tuner's rationale.
	Calibrated  bool    `json:"calibrated"`
	R2          float64 `json:"r2"`
	NsPerWeight float64 `json:"ns_per_weight"`
	Why         string  `json:"why"`
}

// Adapt runs the closed-loop adaptive serving experiment on the named PPS:
// measure the hand-picked reference points, then start from a deliberately
// mis-tuned realization (deep pipeline, batch 1) and let
// Serve(WithAutotune) calibrate, re-cut, and commit — verifying the
// adaptive run's trace byte-for-byte against the sequential oracle before
// timing anything. packets is the stream length per measured point.
func Adapt(name string, packets int) (*AdaptReport, error) {
	pps, ok := netbench.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown PPS %q", name)
	}
	prog, err := pps.Compile()
	if err != nil {
		return nil, err
	}
	traffic := pps.Traffic(256)
	ctx := context.Background()

	measure := func(d, batch, shards int) (float64, error) {
		pipe, err := repro.Partition(prog, repro.WithStages(d))
		if err != nil {
			return 0, err
		}
		m, err := pipe.Serve(ctx, repro.RepeatSource(traffic, packets),
			repro.WithBatch(batch), repro.WithShards(shards), repro.WithShardKey(repro.FlowKey))
		if err != nil {
			return 0, fmt.Errorf("%s D=%d batch=%d P=%d: %w", name, d, batch, shards, err)
		}
		return m.PacketsPerSecond(), nil
	}

	rep := &AdaptReport{PPS: name}
	hand := []struct{ d, batch, shards int }{
		{1, 32, 1},
		{4, 32, 1},
		{1, 32, 4},
	}
	for _, h := range hand {
		pk, err := measure(h.d, h.batch, h.shards)
		if err != nil {
			return nil, err
		}
		rep.Hand = append(rep.Hand, AdaptPoint{
			Label:  fmt.Sprintf("hand D=%d batch=%d P=%d", h.d, h.batch, h.shards),
			Degree: h.d, Batch: h.batch, Shards: h.shards, PktPerS: pk,
		})
	}

	// Correctness first: an adaptive serve over a shorter stream must match
	// the sequential oracle event for event.
	const verifyN = 4096
	vlist := make([][]byte, verifyN)
	for i := range vlist {
		vlist[i] = traffic[i%len(traffic)]
	}
	oracle, err := repro.Partition(prog, repro.WithStages(1))
	if err != nil {
		return nil, err
	}
	seq, err := oracle.Run(ctx, repro.NewWorld(vlist))
	if err != nil {
		return nil, err
	}
	tune := repro.Autotune{ProbePackets: 512, TopK: 4, MaxDegree: 8,
		Batches: []int{1, 32, 64}, Shards: []int{1, 2, 4}}
	vpipe, err := repro.Partition(prog, repro.WithStages(4))
	if err != nil {
		return nil, err
	}
	vm, err := vpipe.Serve(ctx, repro.PacketSource(vlist),
		repro.WithShardKey(repro.FlowKey), repro.WithAutotune(tune))
	if err != nil {
		return nil, err
	}
	if diff := repro.TraceEqual(seq, vm.Trace); diff != "" {
		return nil, fmt.Errorf("adaptive serve diverged from the sequential oracle: %s", diff)
	}

	// The measured adaptive run: start mis-tuned (deep pipeline, batch 1),
	// with probe windows sized to the stream.
	pipe, err := repro.Partition(prog, repro.WithStages(4))
	if err != nil {
		return nil, err
	}
	tune.ProbePackets = max(2048, packets/25)
	m, err := pipe.Serve(ctx, repro.RepeatSource(traffic, packets),
		repro.WithShardKey(repro.FlowKey), repro.WithAutotune(tune))
	if err != nil {
		return nil, err
	}
	rep.AdaptivePktPerS = m.PacketsPerSecond()
	plan := pipe.Plan()
	rep.Calibrated = plan.Calibrated
	rep.R2 = plan.R2
	rep.NsPerWeight = plan.NsPerWeight
	rep.Why = plan.Why

	// Re-measure the committed choice on a fresh fixed stream, apples to
	// apples with the hand-picked points.
	pk, err := measure(plan.Degree, plan.Batch, plan.Shards)
	if err != nil {
		return nil, err
	}
	rep.Auto = AdaptPoint{
		Label:  fmt.Sprintf("auto D=%d batch=%d P=%d", plan.Degree, plan.Batch, plan.Shards),
		Degree: plan.Degree, Batch: plan.Batch, Shards: plan.Shards, PktPerS: pk,
	}
	return rep, nil
}
