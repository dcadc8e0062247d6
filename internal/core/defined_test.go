package core_test

import (
	"fmt"
	"testing"

	. "repro/internal/core"
	"repro/internal/ir"
	"repro/internal/netbench"
	"repro/internal/ppc"
	"repro/internal/randprog"
)

// undefinedReads runs a must-defined forward dataflow over f and returns one
// line per instruction operand that some path from the entry reaches with
// the register unwritten. A phi operand is read at the end of its incoming
// block. The operands of OpSendLS are not checked: a slot may carry a value
// only some paths write, and a path that skips the write sends 0 (shared
// control-object slots, DESIGN §5).
func undefinedReads(f *ir.Func) []string {
	n := len(f.Blocks)
	words := (f.NumRegs + 63) / 64
	set := func(s []uint64, r int) { s[r/64] |= 1 << (r % 64) }
	has := func(s []uint64, r int) bool { return s[r/64]&(1<<(r%64)) != 0 }
	// in[b], out[b]: the registers written on every path to b's start and
	// end. Every block but the entry starts full, so the meet over
	// predecessors only shrinks it; a block no path reaches stays full.
	in, out := make([][]uint64, n), make([][]uint64, n)
	for b := range in {
		in[b], out[b] = make([]uint64, words), make([]uint64, words)
		if b != f.Entry {
			for i := range in[b] {
				in[b][i] = ^uint64(0)
			}
		}
		copy(out[b], in[b])
	}
	preds := make([][]int, n)
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b.ID)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			cur := make([]uint64, words)
			copy(cur, in[b.ID])
			if b.ID != f.Entry {
				for i := range cur {
					cur[i] = ^uint64(0)
				}
				for _, p := range preds[b.ID] {
					for i := range cur {
						cur[i] &= out[p][i]
					}
				}
				copy(in[b.ID], cur)
			}
			for _, ins := range b.Instrs {
				for _, d := range ins.Defines() {
					set(cur, d)
				}
			}
			for i := range cur {
				if cur[i] != out[b.ID][i] {
					copy(out[b.ID], cur)
					changed = true
					break
				}
			}
		}
	}

	var bad []string
	for _, b := range f.Blocks {
		cur := make([]uint64, words)
		copy(cur, in[b.ID])
		for _, ins := range b.Instrs {
			if ins.Op != ir.OpSendLS {
				for i, r := range ins.Args {
					defined := has(cur, r)
					if ins.Op == ir.OpPhi {
						defined = has(out[ins.PhiPreds[i]], r)
					}
					if !defined {
						bad = append(bad, fmt.Sprintf("b%d: %s reads r%d, which some path leaves unwritten", b.ID, ins, r))
					}
				}
			}
			for _, d := range ins.Defines() {
				set(cur, d)
			}
		}
	}
	return bad
}

// checkDefined fails for every register a stage of res, or a unit of res
// coarsened with every second cut un-made, reads that some path through it
// leaves unwritten.
func checkDefined(t *testing.T, label string, res *Result) {
	t.Helper()
	for k, s := range res.Stages {
		for _, line := range undefinedReads(s.Func) {
			t.Errorf("%s stage %d: %s", label, k+1, line)
		}
	}
	units, err := res.Coarsen(0xAAAAAAAAAAAAAAAA)
	if err != nil {
		t.Fatalf("%s coarsen: %v", label, err)
	}
	for _, u := range units {
		for _, line := range undefinedReads(u.Prog.Func) {
			t.Errorf("%s unit %d-%d: %s", label, u.First, u.Last, line)
		}
	}
}

// TestStagesDefineWhatTheyRead: every register a realized stage or
// coarsened unit reads is written on every path from its entry — by its own
// instructions or by the OpRecvLS that starts it — for the six netbench PPS
// at D=1..10 in all three transmission modes, and for random programs as the
// property suites draw them: seeds 0..149 at D=2, 3 and 5, seeds 1000..1039
// at D=3 in every mode. A value a stage reads must arrive over the cut or be
// computed in the stage; a register no path wrote reads 0 and would pass the
// trace oracles wherever 0 happens to be right.
func TestStagesDefineWhatTheyRead(t *testing.T) {
	modes := []TxMode{TxPacked, TxNaiveUnified, TxNaiveInterference}
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
		for d := 1; d <= 10; d++ {
			for _, tx := range modes {
				res, err := a.Partition(Options{Stages: d, Tx: tx})
				if err != nil {
					t.Fatalf("%s D=%d %v: %v", name, d, tx, err)
				}
				checkDefined(t, fmt.Sprintf("%s D=%d %v", name, d, tx), res)
			}
		}
	}

	random := func(seed int64, degrees []int, modes []TxMode) {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		prog, err := ppc.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a, err := Analyze(prog, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, d := range degrees {
			for _, tx := range modes {
				res, err := a.Partition(Options{Stages: d, Tx: tx})
				if err != nil {
					t.Fatalf("seed %d D=%d %v: %v", seed, d, tx, err)
				}
				checkDefined(t, fmt.Sprintf("seed %d D=%d %v", seed, d, tx), res)
			}
		}
	}
	for seed := int64(0); seed < 150; seed++ {
		random(seed, []int{2, 3, 5}, modes[:1])
	}
	for seed := int64(1000); seed < 1040; seed++ {
		random(seed, []int{3}, modes)
	}
}
