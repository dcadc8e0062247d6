package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	. "repro/internal/core"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
	"repro/internal/ppc"
	"repro/internal/randprog"
)

// benchPPS is the benchmark suite: the stages of the IPv4 and IP forwarding
// applications (RX and TX appear in both).
func benchPPS() []netbench.PPS {
	return append(netbench.IPv4Forwarding(), netbench.IPForwarding()...)
}

func unitProgs(units []Unit) []*ir.Program {
	progs := make([]*ir.Program, len(units))
	for i, u := range units {
		progs[i] = u.Prog
	}
	return progs
}

// TestCoarsenEndpoints pins the two ends of the coarsening on every
// benchmark PPS and depth: keeping every cut re-realizes Result.Stages to
// the letter, and keeping none is the D=1 realization — the same program
// text, hence the same lowered closure program.
func TestCoarsenEndpoints(t *testing.T) {
	for _, pps := range benchPPS() {
		prog, err := pps.Compile()
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		a, err := Analyze(prog, nil)
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		one, err := a.Partition(Options{Stages: 1})
		if err != nil {
			t.Fatalf("%s D=1: %v", pps.Name, err)
		}
		oneLow := exec.NewRunner(one.Stages[0], netbench.NewWorld(nil)).Lowered()
		for d := 2; d <= 5; d++ {
			res, err := a.Partition(Options{Stages: d})
			if err != nil {
				t.Fatalf("%s D=%d: %v", pps.Name, d, err)
			}
			all, err := res.Coarsen(0)
			if err != nil {
				t.Fatalf("%s D=%d keep all: %v", pps.Name, d, err)
			}
			if len(all) != d {
				t.Fatalf("%s D=%d keep all: %d units", pps.Name, d, len(all))
			}
			for i, u := range all {
				if u.First != i+1 || u.Last != i+1 {
					t.Errorf("%s D=%d keep all: unit %d covers %d..%d", pps.Name, d, i+1, u.First, u.Last)
				}
				if u.Prog.String() != res.Stages[i].String() {
					t.Errorf("%s D=%d keep all: unit %d prints differently from stage %d", pps.Name, d, i+1, i+1)
				}
				if u.Cost != res.Report.Stages[i].Cost {
					t.Errorf("%s D=%d keep all: unit %d cost %+v, stage cost %+v", pps.Name, d, i+1, u.Cost, res.Report.Stages[i].Cost)
				}
			}
			none, err := res.Coarsen(1<<(d-1) - 1)
			if err != nil {
				t.Fatalf("%s D=%d keep none: %v", pps.Name, d, err)
			}
			if len(none) != 1 || none[0].First != 1 || none[0].Last != d {
				t.Fatalf("%s D=%d keep none: units %+v", pps.Name, d, none)
			}
			if none[0].Prog.String() != one.Stages[0].String() {
				t.Errorf("%s D=%d keep none: program differs from Partition(D=1)", pps.Name, d)
			}
			if low := exec.NewRunner(none[0].Prog, netbench.NewWorld(nil)).Lowered(); low != oneLow {
				t.Errorf("%s D=%d keep none: lowered %+v, Partition(D=1) lowered %+v", pps.Name, d, low, oneLow)
			}
		}
	}
}

// TestCoarsenEveryMaskIsSequential: for every benchmark PPS, depth 2..5 and
// fuse mask, the coarsened units cover the stages contiguously and run, as a
// pipeline, to the trace of the unpartitioned program.
func TestCoarsenEveryMaskIsSequential(t *testing.T) {
	const n = 48
	for _, pps := range benchPPS() {
		prog, err := pps.Compile()
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		a, err := Analyze(prog, nil)
		if err != nil {
			t.Fatalf("%s: %v", pps.Name, err)
		}
		traffic := pps.Traffic(n)
		seq, err := interp.RunSequential(prog, netbench.NewWorld(traffic), n)
		if err != nil {
			t.Fatalf("%s: sequential: %v", pps.Name, err)
		}
		for d := 2; d <= 5; d++ {
			res, err := a.Partition(Options{Stages: d})
			if err != nil {
				t.Fatalf("%s D=%d: %v", pps.Name, d, err)
			}
			for fuse := uint64(0); fuse < 1<<(d-1); fuse++ {
				name := fmt.Sprintf("%s D=%d fuse=%0*b", pps.Name, d, d-1, fuse)
				units, err := res.Coarsen(fuse)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				next := 1
				for _, u := range units {
					if u.First != next || u.Last < u.First {
						t.Fatalf("%s: units not contiguous: %+v", name, units)
					}
					next = u.Last + 1
				}
				if next != d+1 {
					t.Fatalf("%s: units end at stage %d", name, next-1)
				}
				got, err := interp.RunPipeline(unitProgs(units), netbench.NewWorld(traffic), n)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if diff := interp.TraceEqual(seq, got); diff != "" {
					t.Errorf("%s: %s", name, diff)
				}
			}
		}
	}
}

// FuzzCoarsen: a random program cut at a random depth and coarsened by a
// random fuse mask still runs to the sequential trace.
func FuzzCoarsen(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(2+seed%4), uint8(seed*5))
	}
	f.Fuzz(func(t *testing.T, seed int64, depth, mask uint8) {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		prog, err := ppc.Compile(src)
		if err != nil {
			t.Skipf("seed %d: not compilable: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		packets := make([][]byte, 3+rng.Intn(4))
		for i := range packets {
			packets[i] = make([]byte, rng.Intn(16))
			rng.Read(packets[i])
		}
		iters := len(packets) + 1
		base := interp.NewWorld(packets)
		seq, err := interp.RunSequential(prog.Clone(), base.Clone(), iters)
		if err != nil {
			t.Skipf("seed %d: sequential: %v", seed, err)
		}
		d := 2 + int(depth)%5
		res, err := Partition(prog, Options{Stages: d})
		if err != nil {
			t.Skipf("seed %d D=%d: %v", seed, d, err)
		}
		units, err := res.Coarsen(uint64(mask))
		if err != nil {
			t.Fatalf("seed %d D=%d mask %b: %v\n%s", seed, d, mask, err, src)
		}
		got, err := interp.RunPipeline(unitProgs(units), base.Clone(), iters)
		if err != nil {
			t.Fatalf("seed %d D=%d mask %b: %v\n%s", seed, d, mask, err, src)
		}
		if diff := interp.TraceEqual(seq, got); diff != "" {
			t.Fatalf("seed %d D=%d mask %b: %s\n%s", seed, d, mask, diff, src)
		}
	})
}
