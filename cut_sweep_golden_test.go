package repro_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/netbench"
)

// sweepPPS are the six distinct PPS sources of the paper's two applications,
// the ones benchmark/'s cut-sweep workload cuts.
var sweepPPS = []string{"RX", "IPv4", "Scheduler", "QM", "TX", "IP(v4)"}

// digestPrograms folds the printed IR of every program into one FNV-64 hash.
func digestPrograms(progs []*ir.Program) uint64 {
	h := fnv.New64a()
	for _, p := range progs {
		h.Write([]byte(p.String()))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// canonical returns a copy of p whose registers are renumbered in order of
// first mention — block by block, instruction by instruction, defined
// registers before used ones — with NumRegs the number of distinct registers
// mentioned. Two programs that differ only in what their registers are
// called print the same canonically.
func canonical(p *ir.Program) *ir.Program {
	c := p.Clone()
	f := c.Func
	to := make(map[int]int)
	name := func(r int) int {
		n, ok := to[r]
		if !ok {
			n = len(to)
			to[r] = n
		}
		return n
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, d := range in.Defines() {
				in.SetDef(i, name(d))
			}
			for i, u := range in.Uses() {
				in.Args[i] = name(u)
			}
		}
	}
	f.NumRegs = len(to)
	return c
}

// digestCanonical is digestPrograms over the canonical copies: it moves only
// when what the stages compute moves, not when their registers are renamed.
func digestCanonical(progs []*ir.Program) uint64 {
	canon := make([]*ir.Program, len(progs))
	for i, p := range progs {
		canon[i] = canonical(p)
	}
	return digestPrograms(canon)
}

// digestReport folds everything Partition measured — stage costs and sizes,
// every field of every cut, the sequential cost, speedup and overhead — into
// one FNV-64 hash.
func digestReport(r *core.Report) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%+v|%+v|%v|%v|%d", r.Stages, r.Cuts, r.Seq, r.Speedup, r.Overhead, r.LongestStage)
	return h.Sum64()
}

// everySecondCut is the fuse mask both goldens coarsen with: bits 1, 3, 5, …
// set, so cuts 2, 4, 6, … are un-made and cuts 1, 3, 5, … stay.
const everySecondCut = 0xAAAAAAAAAAAAAAAA

// TestCutSweepGolden is the partitioner's byte-identity oracle: the six
// netbench PPS cut at D=1..10 from one Analysis each, one line per (PPS, D)
// holding a digest of the stage programs' printed IR, one of the Report and
// one of the programs renumbered canonically (canon=), plus Coarsen with
// every second cut un-made at D=4 and D=8. A change to how cuts are found or
// stages are realized must leave every line alone; a change to which cuts are
// found or what is realized says so by regenerating the file (go test . -run
// TestCutSweepGolden -update). A change that only renames registers moves
// stages= and coarsen= and leaves every canon=, report= and units= alone.
func TestCutSweepGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range sweepPPS {
		pps, ok := netbench.ByName(name)
		if !ok {
			t.Fatalf("unknown PPS %q", name)
		}
		prog, err := pps.Compile()
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Analyze(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range experiments.Degrees {
			res, err := a.Partition(core.Options{Stages: d})
			if err != nil {
				t.Fatalf("%s D=%d: %v", name, d, err)
			}
			fmt.Fprintf(&b, "%s d=%d stages=%016x report=%016x canon=%016x\n", name, d,
				digestPrograms(res.Stages), digestReport(res.Report), digestCanonical(res.Stages))
			if d != 4 && d != 8 {
				continue
			}
			units, err := res.Coarsen(everySecondCut)
			if err != nil {
				t.Fatalf("%s D=%d coarsen: %v", name, d, err)
			}
			h, hc := fnv.New64a(), fnv.New64a()
			for _, u := range units {
				fmt.Fprintf(h, "%d-%d|%+v|%s\x00", u.First, u.Last, u.Cost, u.Prog)
				fmt.Fprintf(hc, "%d-%d|%+v|%s\x00", u.First, u.Last, u.Cost, canonical(u.Prog))
			}
			fmt.Fprintf(&b, "%s d=%d coarsen=%016x units=%d canon=%016x\n", name, d, h.Sum64(), len(units), hc.Sum64())
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "cut_sweep.golden")
	if *updatePlans {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Errorf("line %d drifted from %s:\n got  %s\n want %s", i+1, path, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("%d lines, golden has %d", len(gl), len(wl))
		}
	}
}
