package experiments

import (
	"repro/internal/costmodel"
	"repro/internal/interp"
	"repro/internal/ir"
)

// StageDemand is the measured dynamic cost of one pipeline stage on a
// traffic stream: the worst per-iteration instruction count (the paper's
// "number of instructions required for processing a minimum sized packet")
// and the transmission share in that worst iteration.
type StageDemand struct {
	MaxTotal int64
	MaxTx    int64
	MeanTot  float64
}

// MeasureDynamic functionally executes the pipeline on the given world and
// returns the per-stage demands. All stages share persistent state.
func MeasureDynamic(stages []*ir.Program, world *interp.World, iters int, arch *costmodel.Arch, ch costmodel.ChannelKind) ([]StageDemand, error) {
	if err := interp.CheckPipeline(stages, world); err != nil {
		return nil, err
	}
	demands := make([]StageDemand, len(stages))
	sums := make([]int64, len(stages))
	var tot, tx int64
	c := interp.Chain[*interp.Runner]{Stages: interp.NewStageRunners(stages, world), After: func(_, k int) {
		if tot > demands[k].MaxTotal {
			demands[k].MaxTotal = tot
			demands[k].MaxTx = tx
		}
		sums[k] += tot
		tot, tx = 0, 0
	}}
	meter := func(in *ir.Instr) {
		w := int64(arch.InstrWeight(in, ch))
		tot += w
		if in.Tx {
			tx += w
		}
	}
	for _, r := range c.Stages {
		r.OnInstr = meter
	}
	if err := c.Run(iters); err != nil {
		return nil, err
	}
	for k := range demands {
		demands[k].MeanTot = float64(sums[k]) / float64(iters)
	}
	return demands, nil
}

// DynamicSpeedup summarizes demands into the paper's metrics: speedup
// (sequential worst iteration / longest stage's worst iteration) and the
// transmission overhead ratio in the longest stage.
func DynamicSpeedup(seq StageDemand, stages []StageDemand) (speedup, overhead float64, longest int) {
	for k, s := range stages {
		if s.MaxTotal > stages[longest].MaxTotal {
			longest = k
		}
	}
	ls := stages[longest]
	if ls.MaxTotal > 0 {
		speedup = float64(seq.MaxTotal) / float64(ls.MaxTotal)
	}
	if proc := ls.MaxTotal - ls.MaxTx; proc > 0 {
		overhead = float64(ls.MaxTx) / float64(proc)
	}
	return speedup, overhead, longest
}
