package main

import "fmt"

// metric is one declared number: its name as printed, its unit, which
// direction is better and — for end-to-end metrics — the share of the
// parent's median by which it may worsen before a change is a regression.
// BENCHMARK.json at the repository root repeats this catalogue for the
// driver; bench_test.go holds the two together.
type metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Est    estimator
	Clock  bool // a wall-clock measurement: reported at the nominal host (hostref.go)
}

// estimator is how one run's samples of a metric become the value the
// run reports.
type estimator int

const (
	// byMedian reports the median of the samples.
	byMedian estimator = iota
	// byBestDecile reports the 10th percentile counted from the better
	// end: the 90th percentile of a rate, the 10th of a time. What a
	// shared host does to a timed section only ever slows it, so over one
	// run the median follows the host and the best decile the program
	// (README.md, "Noise on this host", has both side by side).
	byBestDecile
)

// of reduces one run's samples of m to the reported value; 0 for none.
func (m metric) of(vs []float64) float64 {
	if m.Est == byBestDecile {
		return bestDecile(vs, m.Better)
	}
	return median(vs)
}

// endToEnd is what a user of the system sees. Every workload reports all
// of them (README.md has the per-workload definition of each); none is
// ever zero. Failures are not a metric here: they are the result's
// attempted/failed counts, and harness.fail_frac in the ledger.
var endToEnd = []metric{
	{"pkt_per_s", "pkt/s", "higher", 0.25, byBestDecile, true},
	{"lat_p50_us", "us", "lower", 0.25, byBestDecile, true},
	{"alloc_b_per_pkt", "B/pkt", "lower", 0.05, byMedian, false},
	{"cut_sweep_ms", "ms", "lower", 0.25, byBestDecile, true},
	{"static_speedup_d9", "x", "higher", 0.001, byMedian, false},
	{"setup_s", "s", "lower", 0.25, byBestDecile, true},
}

// sweepPPS are the six distinct PPS sources of the paper's two
// applications, by metric suffix and netbench name.
var sweepPPS = []struct{ key, name string }{
	{"rx", "RX"}, {"ipv4", "IPv4"}, {"scheduler", "Scheduler"},
	{"qm", "QM"}, {"tx", "TX"}, {"ip", "IP(v4)"},
}

// ledgerStages is how many stages the traced per-stage ledger names.
const ledgerStages = 4

// perLayer is the per-layer ledger, layers named after the modules. A
// metric whose layer is not on a workload's path reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	var ms []metric
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			ms = append(ms, metric{Name: n, Unit: unit, Better: better})
		}
	}
	// Setup, timed calls.
	add("ms", "lower", "ppc.compile_ms", "core.analyze_ms", "core.partition_ms",
		"exec.lower_ms", "runtime.empty_serve_ms")
	// Floors: one layer alone, no pipeline around it.
	add("ns/pkt", "lower", "exec.chain_ns_per_pkt", "exec.max_stage_ns_per_pkt",
		"interp.seq_ns_per_pkt")
	add("ns", "lower", "spsc.handoff_ns_per_entry", "spsc.wake_ns")
	add("ns/pkt", "lower", "ingest.pull_ns_per_pkt", "ingest.feeder_ns_per_pkt")
	add("frac", "lower", "ingest.drop_frac")
	add("count", "lower", "ingest.decode_errors")
	// Always-on counters of the untraced timed runs.
	add("ns/pkt", "lower", "runtime.busy_ns_per_pkt", "runtime.max_stage_busy_ns_per_pkt")
	add("x", "lower", "runtime.busy_over_exec", "runtime.wall_over_bottleneck")
	add("ns/pkt", "lower", "runtime.rx_wait_ns_per_pkt", "runtime.tx_wait_ns_per_pkt")
	add("1/kpkt", "lower", "runtime.stalls_per_kpkt")
	add("entries", "lower", "runtime.mean_occupancy")
	add("ns/pkt", "lower", "runtime.outside_elapsed_ns_per_pkt")
	add("1/pkt", "lower", "runtime.mallocs_per_pkt")
	add("B/pkt", "lower", "runtime.retained_b_per_pkt")
	add("1/Mpkt", "lower", "runtime.gc_cycles_per_mpkt")
	add("1/kpkt", "lower", "spsc.spins_per_kpkt", "spsc.parks_per_kpkt")
	add("ns/pkt", "lower", "spsc.spin_ns_per_pkt", "spsc.park_ns_per_pkt")
	// Cost model against measurement.
	add("frac", "lower", "costmodel.balance_err")
	add("count", "higher", "costmodel.fused_cuts")
	// Traced run: the per-stage ledger.
	for s := 1; s <= ledgerStages; s++ {
		p := fmt.Sprintf("runtime.s%d.", s)
		add("ns/pkt", "lower", p+"exec_ns_per_pkt", p+"wait_ns_per_pkt", p+"tx_ns_per_pkt")
		add("frac", "lower", p+"unaccounted_frac")
	}
	add("frac", "lower", "obsv.trace_overhead_frac")
	add("count", "lower", "obsv.spans_dropped")
	// Latency diagnostics (open loop only).
	add("us", "lower", "lat.p90_us", "lat.p99_us", "lat.p999_us", "lat.max_us")
	add("frac", "lower", "lat.over_1ms_frac")
	add("us", "lower", "harness.gen_late_p50_us", "harness.gen_late_p99_us")
	// Partitioner, exact counts.
	for _, p := range sweepPPS {
		add("x", "higher", "core.speedup_d9."+p.key)
	}
	for _, p := range sweepPPS {
		add("frac", "lower", "core.overhead_d9."+p.key)
	}
	add("count", "lower", "core.mincut_iterations", "core.infeasible_cuts")
	// The harness itself: the correctness gate, and the plain figure
	// beside the rebuilt one.
	add("frac", "lower", "harness.fail_frac")
	add("pkt/s", "higher", "harness.wall_pkt_per_s")
	add("x", "lower", "harness.host_factor")
	add("ms", "lower", "harness.host_walk_ms", "harness.host_alloc_ms")
	return ms
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string
	run  func(h *harness) error
}

// workloads lists the five workloads in the order they run.
var workloads = []workload{
	{"fwd-d1", "IPv4 PPS at D=1, saturated from memory: exec does nearly all the work and no ring exists, so exec changes show 1:1 and ring changes must not show",
		serveWorkload(serveSpec{pps: "IPv4", degree: 1, batch: 32, shards: 1, packets: 24 * cycleLen})},
	{"fwd-d4", "same PPS at D=4 with every cut on an SPSC ring, saturated: ring, wait-strategy and stage-loop costs run four times per packet",
		serveWorkload(serveSpec{pps: "IPv4", degree: 4, batch: 32, shards: 1, fusionOff: true, packets: 24 * cycleLen})},
	{"fwd-d4-open", "the D=4 ringed pipeline at batch 8 under open-loop Poisson arrivals at 100k pkt/s: rings mostly empty, so wake latency and batch-fill delay show",
		serveWorkload(serveSpec{pps: "IPv4", degree: 4, batch: 8, shards: 1, fusionOff: true, openRate: 100_000, packets: 50_000})},
	{"ip-p2-tcp", "IP PPS on mixed v4/v6 traffic, D=4 with the cost model's fusion verdicts, 2 shards by flow key, fed over loopback TCP: the operator's default path, where ingest and merge weigh",
		serveWorkload(serveSpec{pps: "IP(v4)", mixed: true, degree: 4, batch: 32, shards: 2, tcp: true, packets: 24 * cycleLen})},
	{"cut-sweep", "no serving: six PPS compiled, analyzed and cut at D=1..10, every cut checked on the interpreter; pins the paper's static result and bypasses the serve stack",
		cutSweepWorkload},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
