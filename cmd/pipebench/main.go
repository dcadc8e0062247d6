// Command pipebench regenerates the paper's evaluation: figures 19-22 (PPS
// speedup and live-set transmission overhead versus pipelining degree for
// the NPF IPv4 forwarding and IP forwarding benchmarks), the headline >4x
// claim, and the ablations catalogued in DESIGN.md.
//
// Usage:
//
//	pipebench [-experiment all|fig19|fig20|fig21|fig22|headline|ablations|sim]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// Every PPS is analyzed once and the independent (PPS × degree) and
// ablation configurations are measured on GOMAXPROCS goroutines;
// GOMAXPROCS=1 gives the sequential run. The printed tables are
// byte-identical at any core count. Figures 21 and 22 and the headline are
// read from the series figures 19 and 20 measure, each sweep run once.
//
// Host throughput is not measured here: the serve sweep is BenchmarkServe
// (go test -run '^$' -bench '^BenchmarkServe$' -count=10 .) and the
// regression benchmark is benchmark/ (see BENCHMARK.json). -cpuprofile and
// -memprofile write pprof profiles of whatever experiment ran.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"

	"repro/internal/experiments"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	which := flag.String("experiment", "all", "which experiment to run")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile of the run to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
			}
		}()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
			return
		}
		defer f.Close()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pipebench: %v\n", err)
		}
	}()

	exit := 0
	var names []string // every experiment offered, for the unknown-name error
	matched := false
	run := func(name string, fn func() error) {
		names = append(names, name)
		if exit != 0 || (*which != "all" && *which != name) {
			return
		}
		matched = true
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "pipebench %s: %v\n", name, err)
			exit = 1
		}
	}

	fig19 := sync.OnceValues(experiments.Fig19SpeedupIPv4)
	fig20 := sync.OnceValues(experiments.Fig20SpeedupIP)
	table := func(sweep func() ([]experiments.Series, error), render func(string, []experiments.Series) string, title string) func() error {
		return func() error {
			s, err := sweep()
			if err != nil {
				return err
			}
			fmt.Println(render(title, s))
			return nil
		}
	}
	run("fig19", table(fig19, experiments.SpeedupTable,
		"Figure 19: speedup of the IPv4 forwarding PPSes vs pipelining degree"))
	run("fig20", table(fig20, experiments.SpeedupTable,
		"Figure 20: speedup of the IP forwarding PPSes vs pipelining degree"))
	run("fig21", table(fig19, experiments.OverheadTable,
		"Figure 21: live-set transmission overhead, IPv4 forwarding PPSes"))
	run("fig22", table(fig20, experiments.OverheadTable,
		"Figure 22: live-set transmission overhead, IP forwarding PPSes"))
	run("headline", func() error {
		s19, err := fig19()
		if err != nil {
			return err
		}
		s20, err := fig20()
		if err != nil {
			return err
		}
		h := experiments.HeadlineClaim(slices.Concat(s19, s20))
		fmt.Println("Headline claim (abstract): speedup at 9 pipeline stages")
		for _, k := range experiments.SortedKeys(h) {
			fmt.Printf("  %-8s %.2fx\n", k, h[k])
		}
		fmt.Println()
		return nil
	})
	run("ablations", func() error {
		fmt.Println("Ablation: transmission strategy (IP PPS, 4 stages)")
		tx, err := experiments.AblationTransmission("IP(v4)", 4)
		if err != nil {
			return err
		}
		for _, a := range tx {
			fmt.Printf("  %-20s objects %3d  slots %3d  overhead %.3f\n",
				a.Mode, a.Objects, a.Slots, a.Overhead)
		}
		fmt.Println()

		fmt.Println("Ablation: balance variance ε (IPv4 PPS, 6 stages)")
		eps, err := experiments.AblationEpsilon("IPv4", 6,
			[]float64{1.0 / 64, 1.0 / 16, 1.0 / 4, 0.5})
		if err != nil {
			return err
		}
		for _, p := range eps {
			fmt.Printf("  eps %-7.4f speedup %.2fx  cut cost %4d  imbalance %.3f\n",
				p.Epsilon, p.Speedup, p.CutCost, p.Imbalance)
		}
		fmt.Println()

		fmt.Println("Ablation: balance weight function (IPv4 PPS, 6 stages; paper §6 future work)")
		wm, err := experiments.AblationWeightMode("IPv4", 6)
		if err != nil {
			return err
		}
		for _, p := range wm {
			fmt.Printf("  %-8s max stage latency %5d  mean %7.1f  skew %.2f  instr speedup %.2fx\n",
				p.Mode, p.MaxStageLat, p.MeanStageLat, p.LatencySkew, p.InstrSpeedup)
		}
		fmt.Println()

		fmt.Println("Ablation: inter-stage ring kind (IPv4 PPS, 6 stages)")
		ch, err := experiments.AblationChannel("IPv4", 6)
		if err != nil {
			return err
		}
		for _, p := range ch {
			fmt.Printf("  %-8s speedup %.2fx  overhead %.3f\n", p.Channel, p.Speedup, p.Overhead)
		}
		fmt.Println()
		return nil
	})
	run("sim", func() error {
		fmt.Println("Simulator throughput (IPv4 PPS, saturated arrivals)")
		pts, err := experiments.SimThroughput("IPv4", []int{1, 2, 4, 6, 8, 10}, 300)
		if err != nil {
			return err
		}
		for _, p := range pts {
			fmt.Printf("  %2d stages: %8.1f cycles/packet  (dynamic speedup %.2fx)\n",
				p.Degree, p.CyclesPerPacket, p.SpeedupDynamic)
		}
		fmt.Println()

		fmt.Println("Thread-level simulator: latency hiding (IPv4 PPS, 4 stages)")
		tp, err := experiments.ThreadLatencyHiding("IPv4", 4, 200)
		if err != nil {
			return err
		}
		for _, p := range tp {
			fmt.Printf("  %d thread(s)/PE: %8.1f cycles/packet  (issue busy %.0f%%)\n",
				p.Threads, p.CyclesPerPacket, p.IssueBusy*100)
		}
		fmt.Println()
		return nil
	})
	if !matched {
		fmt.Fprintf(os.Stderr, "pipebench: unknown -experiment %q (want all|%s)\n", *which, strings.Join(names, "|"))
		return 2
	}
	return exit
}
