// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (PLDI 2005, section 4), plus the ablations catalogued in
// DESIGN.md. Figure metrics (speedup, overhead, slots) are attached with
// b.ReportMetric; `go test -bench=. -benchmem` regenerates every series,
// and `cmd/pipebench` prints them as tables.
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
	"repro/internal/npsim"
	"repro/internal/ppc"
)

// reportSeries attaches a sweep's per-degree metric to the benchmark.
func reportSeries(b *testing.B, series []experiments.Series, metric func(experiments.Series, int) float64, unit string) {
	b.Helper()
	for _, s := range series {
		for i, d := range s.Degrees {
			b.ReportMetric(metric(s, i), fmt.Sprintf("%s_%s_d%d", unit, s.PPS, d))
		}
	}
}

// BenchmarkFig19SpeedupIPv4Forwarding regenerates figure 19: speedup of
// the RX, IPv4, Scheduler, QM and TX stages versus pipelining degree.
func BenchmarkFig19SpeedupIPv4Forwarding(b *testing.B) {
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Fig19SpeedupIPv4()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, series, func(s experiments.Series, i int) float64 { return s.Speedup[i] }, "speedup")
}

// BenchmarkFig20SpeedupIPForwarding regenerates figure 20: speedup of the
// RX, IP (IPv4 traffic), IP (IPv6 traffic) and TX stages.
func BenchmarkFig20SpeedupIPForwarding(b *testing.B) {
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Fig20SpeedupIP()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, series, func(s experiments.Series, i int) float64 { return s.Speedup[i] }, "speedup")
}

// BenchmarkFig21OverheadIPv4Forwarding regenerates figure 21: the live-set
// transmission overhead ratio in the longest stage, the overhead columns of
// figure 19's sweep.
func BenchmarkFig21OverheadIPv4Forwarding(b *testing.B) {
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Fig19SpeedupIPv4()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, series, func(s experiments.Series, i int) float64 { return s.Overhead[i] }, "overhead")
}

// BenchmarkFig22OverheadIPForwarding regenerates figure 22 from figure 20's
// sweep.
func BenchmarkFig22OverheadIPForwarding(b *testing.B) {
	var series []experiments.Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Fig20SpeedupIP()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeries(b, series, func(s experiments.Series, i int) float64 { return s.Overhead[i] }, "overhead")
}

// BenchmarkAblationTransmissionModes compares packed, naive-interference
// and naive-unified transmission (paper figures 10-16) on the IP PPS.
func BenchmarkAblationTransmissionModes(b *testing.B) {
	var abl []experiments.TxAblation
	for i := 0; i < b.N; i++ {
		var err error
		abl, err = experiments.AblationTransmission("IP(v4)", 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, a := range abl {
		b.ReportMetric(float64(a.Slots), "slots_"+a.Mode.String())
		b.ReportMetric(a.Overhead, "overhead_"+a.Mode.String())
	}
}

// BenchmarkAblationBalanceVariance sweeps ε (paper section 3.3: the
// balance/cut-cost trade-off; the product used 1/16).
func BenchmarkAblationBalanceVariance(b *testing.B) {
	var pts []experiments.EpsilonPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.AblationEpsilon("IPv4", 6, []float64{1.0 / 64, 1.0 / 16, 1.0 / 4, 0.5})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(float64(p.CutCost), fmt.Sprintf("cutcost_eps%.4f", p.Epsilon))
		b.ReportMetric(p.Imbalance, fmt.Sprintf("imbalance_eps%.4f", p.Epsilon))
	}
}

// BenchmarkAblationChannelKind compares nearest-neighbor and scratch rings
// (paper section 2.1).
func BenchmarkAblationChannelKind(b *testing.B) {
	var pts []experiments.ChannelPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.AblationChannel("IPv4", 6)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.Speedup, "speedup_"+p.Channel.String())
	}
}

// BenchmarkAblationWeightMode compares the production weight function
// (instruction count) with the paper's proposed future-work extension
// (distributing IO latency over the stages, §6).
func BenchmarkAblationWeightMode(b *testing.B) {
	var pts []experiments.WeightModePoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.AblationWeightMode("IPv4", 6)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.LatencySkew, "latency_skew_"+p.Mode.String())
		b.ReportMetric(p.InstrSpeedup, "speedup_"+p.Mode.String())
	}
}

// BenchmarkAblationInterference measures the interference relations
// directly: exact (impossible paths excluded) versus naive, on a program
// with the paper's t2/t3 exclusive-arm structure.
func BenchmarkAblationInterference(b *testing.B) {
	// The paper's figure 9 shape: t2 and t3 are defined in exclusive arms
	// whose bodies are heavy enough that the balanced cut splits BOTH arms
	// mid-way. With impossible paths excluded, t2 and t3 never cross the
	// cut on the same execution, so packing shares one slot; without the
	// exclusion (figure 13) they falsely interfere and travel separately.
	src := `pps P { loop {
		var p = pkt_rx();
		if (p > 0) {
			var t2 = hash_crc(p * 11);
			var a1 = hash_crc(t2 ^ 1);
			var a2 = hash_crc(a1 + 2);
			var a3 = hash_crc(a2 ^ 3);
			trace(t2 ^ a3);
		} else {
			var t3 = hash_crc(p * 13);
			var b1 = hash_crc(t3 ^ 4);
			var b2 = hash_crc(b1 + 5);
			var b3 = hash_crc(b2 ^ 6);
			trace(t3 ^ b3);
		}
	} }`
	prog := repro.MustCompile(src)
	var packed, naive int
	for i := 0; i < b.N; i++ {
		rp, err := repro.Partition(prog, repro.WithStages(2), repro.WithTxMode(repro.TxPacked))
		if err != nil {
			b.Fatal(err)
		}
		rn, err := repro.Partition(prog, repro.WithStages(2), repro.WithTxMode(repro.TxNaiveUnified))
		if err != nil {
			b.Fatal(err)
		}
		packed, naive = rp.Report().Cuts[0].Slots, rn.Report().Cuts[0].Slots
	}
	b.ReportMetric(float64(packed), "slots_packed")
	b.ReportMetric(float64(naive), "slots_naive")
}

// BenchmarkSimThroughput runs the dynamic (cycle-simulator) counterpart of
// figures 19/20 for the IPv4 PPS.
func BenchmarkSimThroughput(b *testing.B) {
	var pts []experiments.ThroughputPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.SimThroughput("IPv4", []int{1, 2, 4, 8}, 200)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.CyclesPerPacket, fmt.Sprintf("cyc_per_pkt_d%d", p.Degree))
	}
}

// BenchmarkPartitionIPv4 measures the compiler itself: the cost of
// partitioning the largest benchmark PPS nine ways.
func BenchmarkPartitionIPv4(b *testing.B) {
	p, _ := netbench.ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Partition(prog, core.Options{Stages: 9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeOnceCutMany measures the two-phase API the way the
// experiment sweeps use it: one Analyze, then a full degree sweep of cheap
// Partition calls against the shared analysis. Compare with
// BenchmarkPartitionIPv4 (which re-analyzes on every call) for the payoff
// of the phase split.
func BenchmarkAnalyzeOnceCutMany(b *testing.B) {
	p, _ := netbench.ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := core.Analyze(prog, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range experiments.Degrees {
			if _, err := a.Partition(core.Options{Stages: d}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPartitionSweep measures the per-configuration phase alone, the
// way benchmark/'s cut-sweep workload pays for it: the six PPS of the two
// applications, each analyzed once outside the timer and cut at D=1..10 per
// iteration — one sub-benchmark per PPS (ten Partition calls) and "all" (the
// sixty of one sweep), reported as ms/sweep — and the six cut at one degree,
// "d1" and "d10", whose ratio is what a degree costs. Beside it, gc/sweep counts the
// garbage collections a sweep ran: a change that moves only those moves
// ms/sweep too, with no change in the partitioner's own work.
func BenchmarkPartitionSweep(b *testing.B) {
	var analyses []*core.Analysis
	for _, name := range sweepPPS {
		p, _ := netbench.ByName(name)
		prog, err := p.Compile()
		if err != nil {
			b.Fatal(err)
		}
		a, err := core.Analyze(prog, nil)
		if err != nil {
			b.Fatal(err)
		}
		analyses = append(analyses, a)
	}
	sweep := func(as []*core.Analysis, degrees ...int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			b.StopTimer()
			runtime.ReadMemStats(&before)
			b.StartTimer()
			for i := 0; i < b.N; i++ {
				for _, a := range as {
					for _, d := range degrees {
						if _, err := a.Partition(core.Options{Stages: d}); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1000/float64(b.N), "ms/sweep")
			b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/sweep")
		}
	}
	for i, name := range sweepPPS {
		b.Run(name, sweep(analyses[i:i+1], experiments.Degrees...))
	}
	b.Run("all", sweep(analyses, experiments.Degrees...))
	b.Run("d1", sweep(analyses, 1))
	b.Run("d10", sweep(analyses, 10))
}

// BenchmarkVerifySweep measures the check benchmark/'s cut-sweep workload
// times for its pkt_per_s: every cut of the six PPS at D=1..10 (made once,
// outside the timer) run on interp.RunPipeline over 64 packets and compared
// with the unpartitioned program's trace. One op is the sixty checks of one
// sweep; ns/pkt and B/pkt are per packet checked.
func BenchmarkVerifySweep(b *testing.B) {
	const packets = 64
	type check struct {
		stages []*ir.Program
		pkts   [][]byte
		want   []interp.Event
	}
	var checks []check
	for _, name := range sweepPPS {
		p, _ := netbench.ByName(name)
		prog, err := p.Compile()
		if err != nil {
			b.Fatal(err)
		}
		a, err := core.Analyze(prog, nil)
		if err != nil {
			b.Fatal(err)
		}
		pkts := p.Traffic(packets)
		want, err := interp.RunSequential(prog.Clone(), netbench.NewWorld(pkts), packets)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range experiments.Degrees {
			res, err := a.Partition(core.Options{Stages: d})
			if err != nil {
				b.Fatal(err)
			}
			checks = append(checks, check{res.Stages, pkts, want})
		}
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		for _, c := range checks {
			got, err := interp.RunPipeline(c.stages, netbench.NewWorld(c.pkts), packets)
			if err != nil {
				b.Fatal(err)
			}
			if diff := interp.TraceEqual(c.want, got); diff != "" {
				b.Fatal(diff)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * len(checks) * packets)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/pkt")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/pkt")
}

// BenchmarkCompileAnalyze measures the front half of the compiler the way
// benchmark/'s set-up pays for it: one pass is the six PPS of the two
// applications, compiled from source (compile) or analyzed from the compiled
// programs (analyze). One op is one pass, so allocs/op is allocations per
// pass; ms/pass is the wall time of one.
func BenchmarkCompileAnalyze(b *testing.B) {
	var srcs []string
	var progs []*ir.Program
	for _, name := range sweepPPS {
		p, _ := netbench.ByName(name)
		prog, err := p.Compile()
		if err != nil {
			b.Fatal(err)
		}
		srcs, progs = append(srcs, p.Source), append(progs, prog)
	}
	pass := func(step func(i int) error) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				for i := range srcs {
					if err := step(i); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1000/float64(b.N), "ms/pass")
		}
	}
	b.Run("compile", pass(func(i int) error { _, err := ppc.Compile(srcs[i]); return err }))
	b.Run("analyze", pass(func(i int) error { _, err := core.Analyze(progs[i], nil); return err }))
}

// BenchmarkExploreParallel measures the budget exploration with the degree
// fan-out over GOMAXPROCS cores (at GOMAXPROCS=1 this is the sequential
// path).
func BenchmarkExploreParallel(b *testing.B) {
	p, _ := netbench.ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Explore(prog, core.ExploreOptions{Budget: 200}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreter measures the execution substrate: sequential
// interpretation of the IPv4 PPS per packet.
func BenchmarkInterpreter(b *testing.B) {
	p, _ := netbench.ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	oracle, err := repro.Partition(prog, repro.WithStages(1))
	if err != nil {
		b.Fatal(err)
	}
	world := netbench.NewWorld(p.Traffic(b.N))
	b.ResetTimer()
	if _, err := oracle.Run(context.Background(), world, repro.WithIterations(b.N)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServe is the host-throughput sweep: the IPv4 PPS cut D ways and
// served at batch 32 with every cut on an SPSC ring (ringed, FusionOff).
// Each point must reproduce interp.RunSequential byte for byte on a short
// prefix before its timer starts, and reports pkt/s beside the number of
// cuts the served Plan fused. The whole procedure is
//
//	go test -run '^$' -bench '^BenchmarkServe$' -count=10 .
//
// and -count gives the spread; EXPERIMENTS.md ("Host throughput") records
// the table. D1/auto is the serve default (FusionAuto): IPv4 keeps no state,
// so at every D the state rule fuses it into the D=1 program, and at D=1,
// where there is no cut, it is D1/ringed measured twice — the sweep's own
// noise floor. D1/discard
// and D1/hash are D1/ringed with the trace sent elsewhere (WithSink): what
// the in-memory trace costs is the distance to them. Their prefix check is the
// sink's: the event count, and for the hash the oracle's digest.
func BenchmarkServe(b *testing.B) {
	p, _ := netbench.ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	traffic, prefix := p.Traffic(256), p.Traffic(64)
	seq, err := interp.RunSequential(prog.Clone(), netbench.NewWorld(prefix), len(prefix))
	if err != nil {
		b.Fatal(err)
	}
	type row struct {
		name string
		opt  repro.Option
		sink func() repro.Sink // nil: the default, the trace
	}
	var oracle repro.HashSink
	oracle.Push(context.Background(), seq)
	wantSum, _ := oracle.Digest()
	for d := 1; d <= 4; d++ {
		pipe, err := repro.Partition(prog, repro.WithStages(d))
		if err != nil {
			b.Fatal(err)
		}
		rows := []row{{name: "ringed", opt: repro.WithFusion(repro.FusionOff)}}
		if d == 1 {
			rows = append(rows, row{name: "auto", opt: repro.WithFusion(repro.FusionAuto)},
				row{"discard", repro.WithFusion(repro.FusionOff), repro.DiscardSink},
				row{"hash", repro.WithFusion(repro.FusionOff), func() repro.Sink { return &repro.HashSink{} }})
		}
		for _, r := range rows {
			serve := func(src repro.Source) (*repro.Metrics, repro.Sink, error) {
				var sink repro.Sink
				if r.sink != nil {
					sink = r.sink()
				}
				m, err := pipe.Serve(context.Background(), src, repro.WithWorld(netbench.NewWorld(nil)),
					repro.WithBatch(32), r.opt, repro.WithSink(sink))
				return m, sink, err
			}
			b.Run(fmt.Sprintf("D%d/%s", d, r.name), func(b *testing.B) {
				vm, sink, err := serve(repro.PacketSource(prefix))
				if err != nil {
					b.Fatal(err)
				}
				if sink == nil {
					if diff := interp.TraceEqual(seq, vm.Trace); diff != "" {
						b.Fatalf("diverged from the sequential oracle: %s", diff)
					}
				} else if h, ok := sink.(*repro.HashSink); ok {
					if sum, _ := h.Digest(); sum != wantSum {
						b.Fatalf("digest %016x, the oracle's is %016x", sum, wantSum)
					}
				}
				if vm.Flushed != int64(len(seq)) {
					b.Fatalf("sink flushed %d events, the oracle emits %d", vm.Flushed, len(seq))
				}
				b.ResetTimer()
				m, _, err := serve(repro.RepeatSource(traffic, b.N))
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if m.Packets != int64(b.N) {
					b.Fatalf("served %d packets, want %d", m.Packets, b.N)
				}
				plan := pipe.Plan()
				b.ReportMetric(m.PacketsPerSecond(), "pkt/s")
				b.ReportMetric(float64(len(plan.FusedCuts)), "fused_cuts")
			})
		}
	}
}

// BenchmarkSimulator measures the npsim substrate end to end.
func BenchmarkSimulator(b *testing.B) {
	p, _ := netbench.ByName("IPv4")
	prog, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: 4})
	if err != nil {
		b.Fatal(err)
	}
	cfg := npsim.DefaultConfig()
	cfg.Arch = costmodel.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := npsim.Simulate(res.Stages, netbench.NewWorld(p.Traffic(50)), 50, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
