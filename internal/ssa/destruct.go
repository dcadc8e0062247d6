package ssa

import "repro/internal/ir"

// Destruct eliminates phi instructions, converting f back to mutable form.
// Each phi gets a dedicated temporary: every predecessor assigns its
// incoming value to the temporary before branching, and the phi becomes a
// copy from the temporary. Dedicated temporaries make the lost-copy and
// swap problems impossible at the cost of two copies per phi on a path.
// Stage realization removes them again with its copy coalescer
// (coalesceCopies in internal/core), which keeps a copy only where its two
// registers interfere.
func Destruct(f *ir.Func) {
	for _, b := range f.Blocks {
		nPhi := 0
		for _, in := range b.Instrs {
			if in.Op != ir.OpPhi {
				break
			}
			nPhi++
		}
		if nPhi == 0 {
			continue
		}
		phis := b.Instrs[:nPhi]
		for _, phi := range phis {
			tmp := f.NewReg()
			if name, ok := f.RegName[phi.Dst]; ok {
				f.RegName[tmp] = name + ".phi"
			}
			for i, p := range phi.PhiPreds {
				pred := f.Blocks[p]
				cp := &ir.Instr{Op: ir.OpCopy, Dst: tmp, Args: []int{phi.Args[i]}}
				// Insert before the predecessor's terminator.
				n := len(pred.Instrs)
				pred.Instrs = append(pred.Instrs, nil)
				copy(pred.Instrs[n:], pred.Instrs[n-1:])
				pred.Instrs[n-1] = cp
			}
			// Rewrite the phi in place as a copy from the temporary.
			phi.Op = ir.OpCopy
			phi.Args = []int{tmp}
			phi.PhiPreds = nil
		}
	}
}
