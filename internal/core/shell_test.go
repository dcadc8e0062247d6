package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netbench"
)

// TestStageShellIsStageSized holds the function each stage is realized on
// to the stage's size, for the six PPS at D=1..10, each cut as made and
// with every second cut un-made: every block is reached from the entry (no
// stub stands for a block the stage never reaches), and NumRegs is at most
// the registers of the shell the function still names plus those
// realization added (the slot registers), not the analyzed function's.
func TestStageShellIsStageSized(t *testing.T) {
	for _, name := range []string{"RX", "IPv4", "Scheduler", "QM", "TX", "IP(v4)"} {
		p, _ := netbench.ByName(name)
		prog, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Analyze(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		for d := 1; d <= 10; d++ {
			for _, fuse := range []uint64{0, 0x5555} {
				fs, shell, err := core.StageShells(a, core.Options{Stages: d}, fuse)
				if err != nil {
					t.Fatalf("%s D=%d fuse %#x: %v", name, d, fuse, err)
				}
				for k, f := range fs {
					seen := make([]bool, len(f.Blocks))
					stack := []int{f.Entry}
					seen[f.Entry] = true
					for len(stack) > 0 {
						b := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						for _, s := range f.Blocks[b].Succs() {
							if !seen[s] {
								seen[s] = true
								stack = append(stack, s)
							}
						}
					}
					unreached := 0
					for _, r := range seen {
						if !r {
							unreached++
						}
					}
					named := make([]bool, f.NumRegs)
					for _, b := range f.Blocks {
						for _, in := range b.Instrs {
							for _, r := range append(append(in.Defines(), in.Args...), in.Dsts...) {
								named[r] = true
							}
						}
					}
					mentioned := 0
					for r := range shell[k] {
						if named[r] {
							mentioned++
						}
					}
					added := f.NumRegs - shell[k]
					if unreached > 0 || f.NumRegs > mentioned+added {
						t.Errorf("%s D=%d fuse %#x stage %d: %d of %d blocks unreached; %d registers, %d named of the shell's %d plus %d added",
							name, d, fuse, k+1, unreached, len(f.Blocks), f.NumRegs, mentioned, shell[k], added)
					}
				}
			}
		}
	}
}
