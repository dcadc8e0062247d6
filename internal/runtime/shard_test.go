package runtime

// White-box coverage of the sharding layer: the static state scan that
// decides which stages may replicate, the plan topology (scatters and
// fan-ins), the units build wires from it, and the end-to-end serve of a
// table-writing stage.

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/netbench"
	"repro/internal/ppc"
)

// serialOf compiles and partitions a netbench PPS and returns which of its
// stages keep state.
func serialOf(t *testing.T, name string, d int) []bool {
	t.Helper()
	pps, ok := netbench.ByName(name)
	if !ok {
		t.Fatalf("benchmark %s missing", name)
	}
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog, core.Options{Stages: d})
	if err != nil {
		t.Fatal(err)
	}
	return serialStages(res.Stages)
}

// TestClassifyNetbenchStages pins the state scan of the benchmark
// pipelines: the IPv4 PPS keeps no state end to end (its only shared state
// is the read-only route table), while the QM PPS at D=4 alternates
// stateless header stages with serial queue/counter stages — the shape
// that forces every junction kind at once.
func TestClassifyNetbenchStages(t *testing.T) {
	for s, serial := range serialOf(t, "IPv4", 4) {
		if serial {
			t.Errorf("IPv4 stage %d keeps state, want stateless", s+1)
		}
	}
	if got, want := serialOf(t, "QM", 4), []bool{false, true, false, true}; !slices.Equal(got, want) {
		t.Errorf("QM D=4 serial stages %v, want %v", got, want)
	}
}

// flowTableSrc is a PPS whose only persistent state is a table indexed by
// a packet byte. The index is computed early so a D=2 cut separates its
// computation (a stateless stage) from the store (a serial one).
const flowTableSrc = `
pps FlowCount {
	persistent var tbl[256];
	loop {
		var len = pkt_rx();
		var idx = pkt_byte(0);
		var a = pkt_byte(1);
		var b = pkt_byte(2);
		var mixed = hash_crc(a * 251 + b);
		tbl[idx] = tbl[idx] + 1;
		trace(idx * 100000 + tbl[idx] * 100 + mixed - mixed);
	}
}`

// TestNewShardPlanJunctions pins the plan topology on the shapes that
// matter: the QM alternation (dispatcher, fan-in, scatter, second fan-in),
// a replicated last stage (the segment closes at the sink's fan-in), and
// the degenerate all-serial and P=1 plans.
func TestNewShardPlanJunctions(t *testing.T) {
	qmish := []bool{false, true, false, true}
	pl := newShardPlan(qmish, 4)
	if got, want := pl.reps, []int{4, 1, 4, 1}; !equalInts(got, want) {
		t.Fatalf("reps = %v, want %v", got, want)
	}
	if !pl.sharded() || pl.width() != 4 {
		t.Fatalf("sharded=%v width=%d, want true/4", pl.sharded(), pl.width())
	}
	if pl.lanes(0) != 4 || pl.lanes(1) != 4 || pl.lanes(2) != 4 || pl.lanes(3) != 1 {
		t.Fatalf("lane widths wrong: %d %d %d %d", pl.lanes(0), pl.lanes(1), pl.lanes(2), pl.lanes(3))
	}

	if pl := newShardPlan([]bool{false, false}, 4); !equalInts(pl.reps, []int{4, 4}) || pl.lanes(1) != 4 {
		t.Errorf("stateless pipeline: reps=%v, want [4 4] as one segment from the dispatcher to the sink's fan-in",
			pl.reps)
	}
	if pl := newShardPlan([]bool{true, true}, 4); pl.sharded() || pl.width() != 1 {
		t.Errorf("all-serial pipeline must stay width 1, got reps=%v width=%d", pl.reps, pl.width())
	}
	if pl := newShardPlan(qmish, 1); pl.sharded() {
		t.Errorf("P=1 plan must be unsharded, got reps=%v", pl.reps)
	}
}

// TestBuildUnits pins the realized topology as build returns it from a
// Layout, before anything runs: for each plan shape, which units exist —
// one goroutine each — and for every unit its in-port kind, the 1-based cut
// stages its program realizes, and its out-port kind. Every serve goroutine
// is one unit loop, so this table is the whole wiring: the head is a source
// in-port, D=1 and the fully coarsened cut are source -> stage -> sink, the
// dispatcher is a source in-port with no stage, the sink unit behind a
// replicated last stage a fan-in with no stage, and scatters and fan-ins
// appear exactly where the shard plan puts them. The fused rows lay out the
// cut coarsened by their mask where replica widths align.
func TestBuildUnits(t *testing.T) {
	// A rings port taking more than one ring in turn is a fan-in (in) or a
	// scatter (out).
	kinds := map[portKind]string{portSource: "source", portRings: "ring", portSink: "sink"}
	render := func(k portKind, rings int, wide string) string {
		if k == portRings && rings > 1 {
			return wide
		}
		return kinds[k]
	}
	x4 := func(u string) []string { return []string{u, u, u, u} }
	cat := func(parts ...[]string) (out []string) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		app  string
		d, p int
		fuse uint64
		want []string
	}{
		{name: "D=1", app: "IPv4", d: 1, want: []string{"source[1]sink"}},
		{name: "D=3 ringed", app: "IPv4", d: 3,
			want: []string{"source[1]ring", "ring[2]ring", "ring[3]sink"}},
		{name: "D=3 fully fused", app: "IPv4", d: 3, fuse: 0b11,
			want: []string{"source[1-3]sink"}},
		{name: "D=3 head unit fused", app: "IPv4", d: 3, fuse: 0b01,
			want: []string{"source[1-2]ring", "ring[3]sink"}},
		{name: "dispatcher + sharded sink", app: "IPv4", d: 2, p: 4,
			want: cat([]string{"source[]scatter"}, x4("ring[1]ring"), x4("ring[2]ring"), []string{"merge[]sink"}),
		},
		{name: "dispatcher + sharded sink, fused lanes", app: "IPv4", d: 2, p: 4, fuse: 0b1,
			want: cat([]string{"source[]scatter"}, x4("ring[1-2]ring"), []string{"merge[]sink"}),
		},
		// Every QM cut is a junction, so the all-ones fuse request fuses nothing.
		{name: "mid-pipeline scatter + fan-in", app: "QM", d: 4, p: 4, fuse: 0b111,
			want: cat([]string{"source[]scatter"}, x4("ring[1]ring"), []string{"merge[2]scatter"},
				x4("ring[3]ring"), []string{"merge[4]sink"}),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pps, _ := netbench.ByName(tc.app)
			prog, err := pps.Compile()
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Partition(prog, core.Options{Stages: tc.d})
			if err != nil {
				t.Fatal(err)
			}
			l, err := CoarseLayout(res, tc.fuse, true, Config{Shards: tc.p})
			if err != nil {
				t.Fatal(err)
			}
			e, err := build(l, netbench.NewWorld(nil), Packets(nil))
			if err != nil {
				t.Fatal(err)
			}
			// What the layout says is what build wired: a served stage's
			// replica width is the number of units executing it, and the
			// stages report under the cut stages their programs begin at.
			wired := make([]int, len(l.Stages()))
			var got []string
			for _, u := range e.units {
				stages := ""
				if lc := u.lc; lc != nil {
					s := slices.Index(l.first, lc.num) // the served stage beginning at lc.num
					wired[s]++
					stages = fmt.Sprint(lc.num)
					if last := l.first[s+1] - 1; last > lc.num {
						stages += fmt.Sprint("-", last)
					}
				}
				got = append(got, fmt.Sprintf("%s[%s]%s", render(u.in.kind, len(u.in.rings), "merge"), stages,
					render(u.out.kind, len(u.out.rings), "scatter")))
			}
			if fmt.Sprint(l.Replicas()) != fmt.Sprint(wired) {
				t.Errorf("layout says replicas %v, build wired replicas %v", l.Replicas(), wired)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("built %d goroutines %v\nwant  %d goroutines %v", len(got), got, len(tc.want), tc.want)
			}
			// Exactly one unit pushes to the sink — the free ring's one
			// producer — and it is the last one built.
			for i, u := range e.units {
				if (u.out.kind == portSink) != (i == len(e.units)-1) {
					t.Errorf("unit %d of %d: out-port %s", i+1, len(e.units), kinds[u.out.kind])
				}
			}
		})
	}
}

// TestCoarsenedWidthsMatchMembers: un-making a cut between stages of equal
// replica width never changes that width. For every benchmark PPS, depth
// and fuse mask (granted where the ringed widths align),
// each coarsened program replicates exactly as wide as every stage it
// realizes did on its own — so the facade may price and report a fused unit
// at its members' width, and the classifier sees through a merge as well as
// it sees across a live-set transmission.
func TestCoarsenedWidthsMatchMembers(t *testing.T) {
	for _, pps := range append(netbench.IPv4Forwarding(), netbench.IPForwarding()...) {
		prog, err := pps.Compile()
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		a, err := core.Analyze(prog, nil)
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		for d := 2; d <= 5; d++ {
			res, err := a.Partition(core.Options{Stages: d})
			if err != nil {
				t.Fatalf("%s D=%d: %v", pps.Name, d, err)
			}
			cfg := Config{Shards: 4}
			ringed, err := NewLayout(res.Stages, cfg)
			if err != nil {
				t.Fatalf("%s D=%d: %v", pps.Name, d, err)
			}
			for fuse := uint64(1); fuse < 1<<(d-1); fuse++ {
				l, err := CoarseLayout(res, fuse, true, cfg)
				if err != nil {
					t.Fatalf("%s D=%d fuse %b: %v", pps.Name, d, fuse, err)
				}
				for i, w := range l.Replicas() {
					for s := l.first[i]; s < l.first[i+1]; s++ {
						if m := ringed.Replicas()[s-1]; m != w {
							t.Errorf("%s D=%d fuse %b: program %d replicates x%d, its stage %d x%d",
								pps.Name, d, fuse, i+1, w, s, m)
						}
					}
				}
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// flowTraffic builds packets whose first byte is the flow id — the index
// flowTableSrc keys its table by.
func flowTraffic(n, flows int) [][]byte {
	pkts := make([][]byte, n)
	for i := range pkts {
		pkts[i] = []byte{byte(i % flows), byte(i), byte(i * 3), byte(i >> 3), 7, 7, 7, 7}
	}
	return pkts
}

// TestServeShardedTableStageRunsOnce: a stage that stores to a table runs
// as one replica behind a fan-in, so the served trace is byte-identical to
// the sequential oracle.
func TestServeShardedTableStageRunsOnce(t *testing.T) {
	const n = 60
	prog, err := ppc.Compile(flowTableSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Partition(prog.Clone(), core.Options{Stages: 2})
	if err != nil {
		t.Fatal(err)
	}
	traffic := flowTraffic(n, 5)
	seq, err := interp.RunSequential(prog, interp.NewWorld(traffic), n)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Serve(context.Background(), res.Stages, interp.NewWorld(nil), Packets(traffic), Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Packets != n || m.Shards != 4 {
		t.Fatalf("served %d packets at width %d, want %d at 4", m.Packets, m.Shards, n)
	}
	if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
		t.Errorf("trace diverges from oracle: %s", diff)
	}
	if m.Stages[0].Replicas != 4 || m.Stages[1].Replicas != 1 {
		t.Errorf("stages ran %d and %d replicas, want 4 and 1", m.Stages[0].Replicas, m.Stages[1].Replicas)
	}
}
