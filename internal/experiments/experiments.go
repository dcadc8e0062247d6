// Package experiments regenerates every table and figure of the paper's
// evaluation (section 4): speedup versus pipelining degree for each PPS of
// the NPF IPv4 forwarding and IP forwarding benchmarks (figures 19/20), the
// live-set transmission overhead (figures 21/22), and the ablations called
// out in DESIGN.md (transmission modes, balance variance, ring kind, and
// dynamic throughput on the simulator).
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
	"repro/internal/npsim"
	"repro/internal/parallel"
)

// Degrees is the pipelining-degree sweep used by the paper (1..10).
var Degrees = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// Series is one curve: a PPS measured across pipelining degrees.
type Series struct {
	PPS      string
	App      string
	Degrees  []int
	Speedup  []float64 // sequential worst path / longest stage worst path
	Overhead []float64 // tx/proc instruction ratio in the longest stage
}

// MeasureIters is the traffic length used for dynamic measurements: long
// enough that slow paths (TTL expiry, RED drops) occur.
const MeasureIters = 60

// sweepBase is the per-PPS state shared by every (PPS × degree) pair of a
// sweep: the compiled program, its reusable degree-independent analysis,
// and the sequential baseline (worst-iteration demand plus the reference
// trace every partition is verified against).
type sweepBase struct {
	p        netbench.PPS
	analysis *core.Analysis
	seqD     StageDemand
	seqTrace []interp.Event
}

// cell is one (PPS × degree) measurement of a sweep.
type cell struct {
	speedup  float64
	overhead float64
}

// Fig19SpeedupIPv4 reproduces figure 19: speedup of the IPv4 forwarding
// PPSes versus pipelining degree. The overhead columns of the same series
// are figure 21. The (PPS × degree) pairs fan out over GOMAXPROCS
// goroutines; the series are identical at any core count.
func Fig19SpeedupIPv4() ([]Series, error) {
	return sweepAll(netbench.IPv4Forwarding())
}

// Fig20SpeedupIP reproduces figure 20: speedup of the IP forwarding PPSes
// (IPv4 and IPv6 traffic measured separately for the IP PPS). The overhead
// columns of the same series are figure 22.
func Fig20SpeedupIP() ([]Series, error) {
	return sweepAll(netbench.IPForwarding())
}

// sweepAll measures every (PPS × degree) pair of the benchmark set. The
// metric follows the paper: the dynamic instruction count of the longest
// stage when processing a minimum-size packet of the given traffic, worst
// case over the stream. Each PPS is compiled and analyzed once (phase 1,
// fanned out per PPS); the pairs then share that analysis and fan out
// across cores (phase 2), each pair cutting its own configuration,
// executing it on a private world and verifying it against the PPS's
// sequential trace. Results land in (PPS, degree) slots, so the series —
// and, via index-ordered error selection, the first error — are those of a
// sequential nested loop.
func sweepAll(ppses []netbench.PPS) ([]Series, error) {
	arch := costmodel.Default()

	bases := make([]*sweepBase, len(ppses))
	err := parallel.ForEach(len(ppses), func(i int) error {
		p := ppses[i]
		prog, err := p.Compile()
		if err != nil {
			return err
		}
		a, err := core.Analyze(prog, arch)
		if err != nil {
			return fmt.Errorf("%s: analyze: %w", p.Name, err)
		}
		seqWorld := netbench.NewWorld(p.Traffic(MeasureIters))
		seqD, err := MeasureDynamic([]*ir.Program{prog.Clone()}, seqWorld, MeasureIters, arch, costmodel.NNRing)
		if err != nil {
			return fmt.Errorf("%s: sequential: %w", p.Name, err)
		}
		bases[i] = &sweepBase{p: p, analysis: a, seqD: seqD[0], seqTrace: seqWorld.Trace}
		return nil
	})
	if err != nil {
		return nil, err
	}

	cells := make([]cell, len(ppses)*len(Degrees))
	err = parallel.ForEach(len(cells), func(t int) error {
		b := bases[t/len(Degrees)]
		d := Degrees[t%len(Degrees)]
		res, err := b.analysis.Partition(core.Options{Stages: d})
		if err != nil {
			return fmt.Errorf("%s D=%d: %w", b.p.Name, d, err)
		}
		pipeWorld := netbench.NewWorld(b.p.Traffic(MeasureIters))
		demands, err := MeasureDynamic(res.Stages, pipeWorld, MeasureIters, arch, costmodel.NNRing)
		if err != nil {
			return fmt.Errorf("%s D=%d: pipeline: %w", b.p.Name, d, err)
		}
		if diff := interp.TraceEqual(b.seqTrace, pipeWorld.Trace); diff != "" {
			return fmt.Errorf("%s D=%d: pipelined behaviour diverged: %s", b.p.Name, d, diff)
		}
		c := &cells[t]
		c.speedup, c.overhead, _ = DynamicSpeedup(b.seqD, demands)
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]Series, len(ppses))
	for i, b := range bases {
		s := Series{PPS: b.p.Name, App: b.p.App}
		for k, d := range Degrees {
			c := cells[i*len(Degrees)+k]
			s.Degrees = append(s.Degrees, d)
			s.Speedup = append(s.Speedup, c.speedup)
			s.Overhead = append(s.Overhead, c.overhead)
		}
		out[i] = s
	}
	return out, nil
}

// SpeedupTable renders series speedups as the paper's figure data.
func SpeedupTable(title string, series []Series) string {
	return table(title, series, func(s Series, i int) string {
		return fmt.Sprintf("%6.2f", s.Speedup[i])
	})
}

// OverheadTable renders live-set transmission overhead ratios.
func OverheadTable(title string, series []Series) string {
	return table(title, series, func(s Series, i int) string {
		return fmt.Sprintf("%6.3f", s.Overhead[i])
	})
}

func table(title string, series []Series, cell func(Series, int) string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-12s", "degree")
	for _, d := range Degrees {
		fmt.Fprintf(&sb, "%7d", d)
	}
	sb.WriteString("\n")
	for _, s := range series {
		fmt.Fprintf(&sb, "%-12s", s.PPS)
		for i := range s.Degrees {
			fmt.Fprintf(&sb, " %s", cell(s, i))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// TxAblation measures slot counts and overhead per transmission mode for
// one PPS at one degree (the figures 10-16 design space).
type TxAblation struct {
	Mode     core.TxMode
	Slots    int
	Objects  int
	Overhead float64
}

// analyzeByName compiles and analyzes one benchmark PPS: the shared setup
// of every ablation (all configurations of an ablation cut the same
// analysis).
func analyzeByName(name string) (*core.Analysis, error) {
	p, ok := netbench.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown PPS %q", name)
	}
	prog, err := p.Compile()
	if err != nil {
		return nil, err
	}
	return core.Analyze(prog, costmodel.Default())
}

// AblationTransmission compares packed, naive-unified and
// naive-interference transmission for the given PPS. The modes share one
// analysis and fan out across cores.
func AblationTransmission(name string, degree int) ([]TxAblation, error) {
	a, err := analyzeByName(name)
	if err != nil {
		return nil, err
	}
	modes := []core.TxMode{core.TxPacked, core.TxNaiveInterference, core.TxNaiveUnified}
	out := make([]TxAblation, len(modes))
	err = parallel.ForEach(len(modes), func(i int) error {
		res, err := a.Partition(core.Options{Stages: degree, Tx: modes[i]})
		if err != nil {
			return err
		}
		t := TxAblation{Mode: modes[i], Overhead: res.Report.Overhead}
		for _, c := range res.Report.Cuts {
			t.Slots += c.Slots
			t.Objects += c.Values + c.Ctrls
		}
		out[i] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EpsilonPoint is one balance-variance ablation measurement.
type EpsilonPoint struct {
	Epsilon   float64
	Speedup   float64
	CutCost   int64
	Imbalance float64 // max stage cost / mean stage cost
}

// AblationEpsilon sweeps the balance variance for one PPS and degree,
// fanning the ε values out across cores over a shared analysis.
func AblationEpsilon(name string, degree int, epsilons []float64) ([]EpsilonPoint, error) {
	a, err := analyzeByName(name)
	if err != nil {
		return nil, err
	}
	out := make([]EpsilonPoint, len(epsilons))
	err = parallel.ForEach(len(epsilons), func(i int) error {
		eps := epsilons[i]
		res, err := a.Partition(core.Options{Stages: degree, Epsilon: eps})
		if err != nil {
			return err
		}
		var cost int64
		for _, c := range res.Report.Cuts {
			cost += c.Cost
		}
		var total, maxStage int64
		for _, s := range res.Report.Stages {
			total += s.Cost.Total
			if s.Cost.Total > maxStage {
				maxStage = s.Cost.Total
			}
		}
		imb := 0.0
		if total > 0 {
			imb = float64(maxStage) * float64(degree) / float64(total)
		}
		out[i] = EpsilonPoint{Epsilon: eps, Speedup: res.Report.Speedup, CutCost: cost, Imbalance: imb}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ChannelPoint compares ring kinds.
type ChannelPoint struct {
	Channel  costmodel.ChannelKind
	Speedup  float64
	Overhead float64
}

// AblationChannel compares NN and scratch rings for one PPS and degree,
// fanning the ring kinds out across cores over a shared analysis.
func AblationChannel(name string, degree int) ([]ChannelPoint, error) {
	a, err := analyzeByName(name)
	if err != nil {
		return nil, err
	}
	kinds := []costmodel.ChannelKind{costmodel.NNRing, costmodel.ScratchRing}
	out := make([]ChannelPoint, len(kinds))
	err = parallel.ForEach(len(kinds), func(i int) error {
		res, err := a.Partition(core.Options{Stages: degree, Channel: kinds[i]})
		if err != nil {
			return err
		}
		out[i] = ChannelPoint{Channel: kinds[i], Speedup: res.Report.Speedup, Overhead: res.Report.Overhead}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WeightModePoint compares balance weight functions (the paper's §6
// future-work extension): how evenly each mode spreads unhidden IO latency
// across the stages.
type WeightModePoint struct {
	Mode         costmodel.WeightMode
	MaxStageLat  int64   // largest per-stage static latency sum
	MeanStageLat float64 // mean per-stage static latency sum
	LatencySkew  float64 // max/mean: 1.0 = perfectly distributed
	InstrSpeedup float64 // the figure-19 metric under this mode
}

// AblationWeightMode partitions one PPS under both weight functions and
// measures the distribution of IO latency over the stages. The weight
// function is baked into the flow-network capacities, so unlike the other
// ablations each mode runs its own analysis; the two configurations still
// fan out across cores.
func AblationWeightMode(name string, degree int) ([]WeightModePoint, error) {
	p, ok := netbench.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown PPS %q", name)
	}
	prog, err := p.Compile()
	if err != nil {
		return nil, err
	}
	latencyArch := costmodel.Default()
	latencyArch.Mode = costmodel.WeightLatency

	modes := []costmodel.WeightMode{costmodel.WeightInstrs, costmodel.WeightLatency}
	out := make([]WeightModePoint, len(modes))
	err = parallel.ForEach(len(modes), func(i int) error {
		mode := modes[i]
		arch := costmodel.Default()
		arch.Mode = mode
		res, err := core.Partition(prog, core.Options{Stages: degree, Arch: arch})
		if err != nil {
			return err
		}
		// Measure the latency distribution with the latency cost table,
		// regardless of which mode drove the balance.
		var maxLat, totLat int64
		for _, sp := range res.Stages {
			var lat int64
			for _, b := range sp.Func.Blocks {
				for _, in := range b.Instrs {
					lat += int64(latencyArch.InstrWeight(in, costmodel.NNRing))
				}
			}
			totLat += lat
			if lat > maxLat {
				maxLat = lat
			}
		}
		mean := float64(totLat) / float64(degree)
		pt := WeightModePoint{Mode: mode, MaxStageLat: maxLat, MeanStageLat: mean}
		if mean > 0 {
			pt.LatencySkew = float64(maxLat) / mean
		}
		// Judge the partition's instruction balance with the standard
		// cost table so the two rows are comparable.
		instrArch := costmodel.Default()
		seq := core.FuncCost(prog.Func, instrArch, costmodel.NNRing)
		var maxStage int64
		for _, sp := range res.Stages {
			if c := core.FuncCost(sp.Func, instrArch, costmodel.NNRing); c.Total > maxStage {
				maxStage = c.Total
			}
		}
		if maxStage > 0 {
			pt.InstrSpeedup = float64(seq.Total) / float64(maxStage)
		}
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ThroughputPoint is one simulator measurement.
type ThroughputPoint struct {
	Degree          int
	CyclesPerPacket float64
	SpeedupDynamic  float64
}

// SimThroughput runs the cycle simulator across degrees for one PPS — the
// dynamic counterpart of figures 19/20. The degrees share one analysis and
// fan out across cores; the dynamic speedup is normalized against the
// first degree after all points land, so the curve is order-independent.
func SimThroughput(name string, degrees []int, iters int) ([]ThroughputPoint, error) {
	p, ok := netbench.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown PPS %q", name)
	}
	if len(degrees) == 0 {
		return nil, nil
	}
	a, err := analyzeByName(name)
	if err != nil {
		return nil, err
	}
	out := make([]ThroughputPoint, len(degrees))
	err = parallel.ForEach(len(degrees), func(i int) error {
		d := degrees[i]
		res, err := a.Partition(core.Options{Stages: d})
		if err != nil {
			return err
		}
		sim, err := npsim.Simulate(res.Stages, netbench.NewWorld(p.Traffic(iters)), iters, npsim.DefaultConfig())
		if err != nil {
			return err
		}
		out[i] = ThroughputPoint{Degree: d, CyclesPerPacket: sim.CyclesPerPacket}
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := out[0].CyclesPerPacket
	for i := range out {
		if out[i].CyclesPerPacket > 0 {
			out[i].SpeedupDynamic = base / out[i].CyclesPerPacket
		}
	}
	return out, nil
}

// ThreadPoint is one thread-level simulator measurement.
type ThreadPoint struct {
	Threads         int
	CyclesPerPacket float64
	IssueBusy       float64 // of the first engine
}

// ThreadLatencyHiding sweeps hardware-thread counts on the fine-grained
// simulator, demonstrating the premise behind the paper's instruction-count
// weight function: memory latency is hidden by multithreading. The thread
// configurations share one partition and fan out across cores, each
// simulating on a private world.
func ThreadLatencyHiding(name string, degree, iters int) ([]ThreadPoint, error) {
	p, ok := netbench.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown PPS %q", name)
	}
	prog, err := p.Compile()
	if err != nil {
		return nil, err
	}
	res, err := core.Partition(prog, core.Options{Stages: degree})
	if err != nil {
		return nil, err
	}
	threadCounts := []int{1, 2, 4, 8}
	out := make([]ThreadPoint, len(threadCounts))
	err = parallel.ForEach(len(threadCounts), func(i int) error {
		cfg := npsim.DefaultConfig()
		cfg.ThreadsPerPE = threadCounts[i]
		sim, err := npsim.SimulateThreads(res.Stages, netbench.NewWorld(p.Traffic(iters)), iters, cfg)
		if err != nil {
			return err
		}
		pt := ThreadPoint{Threads: threadCounts[i], CyclesPerPacket: sim.CyclesPerPacket}
		if len(sim.IssueBusy) > 0 {
			pt.IssueBusy = sim.IssueBusy[0]
		}
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// HeadlineClaim checks the abstract's claim: >4x speedup at nine stages
// for the IPv4 PPS and for the IP PPS under both traffics, using the
// paper's dynamic instructions-per-minimum-size-packet metric. It reads the
// D=9 column of the figure 19/20 series, which measure exactly that.
func HeadlineClaim(series []Series) map[string]float64 {
	out := make(map[string]float64, 3)
	for _, s := range series {
		switch s.PPS {
		case "IPv4", "IP(v4)", "IP(v6)":
			for i, d := range s.Degrees {
				if d == 9 {
					out[s.PPS] = s.Speedup[i]
				}
			}
		}
	}
	return out
}

// SortedKeys is a small helper for deterministic map rendering.
func SortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
