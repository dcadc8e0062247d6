// Command benchmark is the repository's benchmark: five oracle-checked
// workloads, six end-to-end metrics with regression bounds, and a
// per-layer ledger taken from outside the program. It drives the system
// through the public repro API for every end-to-end number and through
// each layer's exported functions for that layer's floor; it changes no
// code it measures and claims no gain.
//
//	go run ./benchmark                 # all workloads, both halves
//	go run ./benchmark -workload fwd-d4 -seed 7 -seconds 15 -trace 0
//	go run ./benchmark -selfcheck      # two interleaved sets, side by side
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"} — the form BENCHMARK.json's
// driver reads: -trace 0 reports the end-to-end metrics from untraced
// runs, -trace 1 the per-layer ledger. Any oracle mismatch, unbalanced
// packet ledger or undelivered packet makes the command exit non-zero
// after printing. README.md in this directory defines every name.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	stdruntime "runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run, or all")
		seedArg   = flag.String("seed", "1", "traffic seed, any 64-bit integer; the program under test sees only the packets")
		seconds   = flag.Float64("seconds", 15, "measuring time per workload")
		trace     = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; default both")
		reps      = flag.Int("reps", 0, "fixed repetitions per workload instead of filling -seconds")
		short     = flag.Bool("short", false, "smoke-test sizes: every code path, no meaningful numbers")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets and print their difference beside each bound")
		raw       = flag.Bool("samples", false, "also print every sample of every end-to-end metric, in the order taken")
	)
	flag.Parse()
	seed, err := strconv.ParseInt(*seedArg, 10, 64)
	if err != nil {
		// A seed above the signed range keeps its bits.
		var u uint64
		u, err = strconv.ParseUint(*seedArg, 10, 64)
		seed = int64(u)
	}
	if err != nil || flag.NArg() > 0 || *trace < -1 || *trace > 1 || *seconds <= 0 || *reps < 0 {
		flag.Usage()
		os.Exit(2)
	}

	procs := min(stdruntime.NumCPU(), 4)
	stdruntime.GOMAXPROCS(procs)

	run := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		run = []workload{w}
	}
	opt := options{seed: seed, seconds: *seconds, reps: *reps, short: *short,
		e2e: *trace != 1, layers: *trace != 0, outDir: outDir()}
	if *selfcheck {
		// Two sets need twice the repetitions; only untraced numbers are
		// compared.
		opt.seconds, opt.reps, opt.layers = 2*opt.seconds, 2*opt.reps, false
	}
	printHeader(opt, procs)

	exit := 0
	for _, w := range run {
		h := newHarness(w.Name, opt)
		if err := errors.Join(w.run(h), h.writeTrace()); err != nil {
			fmt.Printf("%s: %v\n", w.Name, err)
			os.Exit(1)
		}
		for _, p := range h.problems {
			fmt.Printf("MISMATCH %s\n", p)
		}
		if *selfcheck {
			printSelfcheck(h)
		} else {
			printTable(h)
		}
		if *raw {
			for _, m := range endToEnd {
				fmt.Printf("samples %s %.6g\n", m.Name, h.samples[m.Name])
			}
			for _, k := range []string{"harness.host_walk_ms", "harness.host_alloc_ms"} {
				fmt.Printf("samples %s %.6g\n", k, h.samples[k])
			}
		}
		if h.failed > 0 || len(h.problems) > 0 {
			exit = 1
		}
		fmt.Println(resultLine(h))
	}
	os.Exit(exit)
}

// outDir is where trace files go: beside this program's sources, whether
// the command runs from the repository root or from this directory.
func outDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return "benchmark/out"
	}
	return "out"
}

// printHeader puts the host fingerprint next to the numbers: a result
// without it cannot be compared with another.
func printHeader(opt options, procs int) {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			commit += "+dirty"
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	fmt.Printf("# benchmark  cores=%d GOMAXPROCS=%d go=%s %s/%s kernel=%s\n",
		stdruntime.NumCPU(), procs, stdruntime.Version(), stdruntime.GOOS, stdruntime.GOARCH, kernel)
	fmt.Printf("# commit=%s date=%s seed=%d seconds=%g reps=%d short=%t\n",
		commit, time.Now().UTC().Format(time.RFC3339), opt.seed, opt.seconds, opt.reps, opt.short)
}

// reported lists the metrics a run emits, in catalogue order.
func reported(opt options) []metric {
	var ms []metric
	if opt.e2e {
		ms = append(ms, endToEnd...)
	}
	if opt.layers {
		ms = append(ms, perLayer...)
	}
	return ms
}

func printTable(h *harness) {
	fmt.Printf("\n== %s  (%.1fs)  host factor %.3f\n", h.workload, time.Since(h.started).Seconds(), hostFactor(h.samples))
	fmt.Printf("%-36s %14s %-8s %14s %14s %14s %4s\n", "metric", "reported", "unit", "q1", "median", "q3", "n")
	for _, m := range reported(h.opt) {
		vs := h.samples[m.Name]
		fmt.Printf("%-36s %14.6g %-8s %14.6g %14.6g %14.6g %4d\n", m.Name, h.value(m), m.Unit,
			quantile(vs, 0.25), median(vs), quantile(vs, 0.75), len(vs))
	}
}

// printSelfcheck splits the run's repetitions into two round-robin sets —
// so drift hits both — and prints, per end-to-end metric, how far the
// second set's median is from the first's, beside the metric's bound.
func printSelfcheck(h *harness) {
	a, b := h.samples.interleaved(0), h.samples.interleaved(1)
	fmt.Printf("\n== %s  selfcheck  (%.1fs)\n", h.workload, time.Since(h.started).Seconds())
	fmt.Printf("%-20s %14s %14s %9s %7s %4s  %s\n", "metric", "set A", "set B", "diff", "bound", "n", "")
	for _, m := range endToEnd {
		va, vb := h.valueIn(m, a), h.valueIn(m, b)
		diff := math.Abs(safeDiv(vb-va, va))
		verdict := "ok"
		if diff > m.Bound {
			verdict = "OVER"
		}
		fmt.Printf("%-20s %14.6g %14.6g %8.2f%% %6.1f%% %4d  %s\n", m.Name, va, vb,
			100*diff, 100*m.Bound, len(a[m.Name]), verdict)
	}
}

// resultLine renders the run as the one JSON object the driver reads.
func resultLine(h *harness) string {
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{h.failed == 0 && len(h.problems) == 0, h.attempted, h.failed, map[string]reading{}}
	for _, m := range reported(h.opt) {
		out.Metrics[m.Name] = reading{h.value(m), m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Only a non-finite value can do this; it must not pass silently.
		fmt.Printf("%s: result not encodable: %v\n", h.workload, err)
		os.Exit(1)
	}
	return string(b)
}
