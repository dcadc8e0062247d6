package core_test

import (
	"fmt"
	"testing"

	. "repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/netbench"
	"repro/internal/ppc"
	"repro/internal/randprog"
)

// checkDense fails unless f's register file is exactly the registers it
// mentions: NumRegs is their count (so every number below it is used), every
// RegName key is one of them, and the function verifies.
func checkDense(t *testing.T, label string, f *ir.Func) {
	t.Helper()
	seen := make(map[int]bool)
	mention := func(r int) {
		if r < 0 || r >= f.NumRegs {
			t.Errorf("%s: r%d outside the %d registers it declares", label, r, f.NumRegs)
		}
		seen[r] = true
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Dst != ir.NoReg {
				mention(in.Dst)
			}
			for _, r := range in.Dsts {
				mention(r)
			}
			for _, r := range in.Args {
				mention(r)
			}
		}
	}
	if f.NumRegs != len(seen) {
		t.Errorf("%s: declares %d registers, mentions %d", label, f.NumRegs, len(seen))
	}
	for r := range f.RegName {
		if !seen[r] {
			t.Errorf("%s: RegName names r%d, which it never mentions (NumRegs %d)", label, r, f.NumRegs)
		}
	}
	if err := f.Verify(ir.VerifyMutable); err != nil {
		t.Errorf("%s: %v", label, err)
	}
}

// TestStageRegistersDense: every realized stage is a self-contained program
// whose registers are numbered densely from zero — the six netbench PPS at
// D=1..10, their coarsenings with every second cut un-made at D=4 and D=8,
// and 200 random programs cut and coarsened. The log line is the register
// count of the six-PPS sweep's 330 stages (170,006 when every stage kept the
// original function's numbering).
func TestStageRegistersDense(t *testing.T) {
	total := 0
	for _, name := range []string{"RX", "IPv4", "Scheduler", "QM", "TX", "IP(v4)"} {
		pps, _ := netbench.ByName(name)
		prog, err := pps.Compile()
		if err != nil {
			t.Fatal(err)
		}
		a, err := Analyze(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range experiments.Degrees {
			res, err := a.Partition(Options{Stages: d})
			if err != nil {
				t.Fatalf("%s D=%d: %v", name, d, err)
			}
			for k, s := range res.Stages {
				checkDense(t, fmt.Sprintf("%s D=%d stage %d", name, d, k+1), s.Func)
				total += s.Func.NumRegs
			}
			if d == 4 || d == 8 {
				checkUnits(t, fmt.Sprintf("%s D=%d", name, d), res)
			}
		}
	}
	t.Logf("six-PPS sweep: %d stage registers", total)

	for seed := int64(0); seed < 200; seed++ {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		prog, err := ppc.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d := 2 + int(seed%4)
		res, err := Partition(prog, Options{Stages: d})
		if err != nil {
			t.Fatalf("seed %d D=%d: %v", seed, d, err)
		}
		for k, s := range res.Stages {
			checkDense(t, fmt.Sprintf("seed %d D=%d stage %d", seed, d, k+1), s.Func)
		}
		checkUnits(t, fmt.Sprintf("seed %d D=%d", seed, d), res)
	}
}

// checkUnits checks the units of res coarsened with every second cut
// un-made.
func checkUnits(t *testing.T, label string, res *Result) {
	t.Helper()
	units, err := res.Coarsen(0xAAAAAAAAAAAAAAAA) // bits 1, 3, 5, …: cuts 2, 4, 6, … un-made
	if err != nil {
		t.Fatalf("%s coarsen: %v", label, err)
	}
	for _, u := range units {
		checkDense(t, fmt.Sprintf("%s unit %d-%d", label, u.First, u.Last), u.Prog.Func)
	}
}
