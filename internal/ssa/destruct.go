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
//
// A predecessor's copies sit before its terminator in the order the phis
// name it: by block, then phi, then operand. The copies and their operands
// are carved from one slab each, and each predecessor's instruction list
// is grown once, in a third.
func Destruct(f *ir.Func) {
	// Count each predecessor's copies, and the phis.
	var added []int
	nPhi, nCopy := 0, 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpPhi {
				break
			}
			if added == nil {
				added = make([]int, len(f.Blocks))
			}
			nPhi++
			nCopy += len(in.PhiPreds)
			for _, p := range in.PhiPreds {
				added[p]++
			}
		}
	}
	if nPhi == 0 {
		return
	}
	grown := 0
	for p, k := range added {
		if k > 0 {
			grown += len(f.Blocks[p].Instrs) + k
		}
	}
	copies, args, lists := make([]ir.Instr, nCopy), make([]int, nCopy+nPhi), make([]*ir.Instr, grown)
	// next[p] is where predecessor p's next copy goes: its grown list holds
	// the instructions before its terminator, the copies, the terminator.
	next := added
	for p, k := range added {
		if k == 0 {
			continue
		}
		pred := f.Blocks[p]
		n := len(pred.Instrs)
		list := lists[: n+k : n+k]
		lists = lists[n+k:]
		copy(list, pred.Instrs[:n-1])
		list[n+k-1] = pred.Instrs[n-1]
		pred.Instrs, next[p] = list, n-1
	}
	for _, b := range f.Blocks {
		for _, phi := range b.Instrs {
			if phi == nil || phi.Op != ir.OpPhi { // nil: a copy slot not yet filled
				break
			}
			tmp := f.NewReg()
			if name, ok := f.RegName[phi.Dst]; ok {
				f.RegName[tmp] = name + ".phi"
			}
			for i, p := range phi.PhiPreds {
				cp := &copies[0]
				copies = copies[1:]
				*cp = ir.Instr{Op: ir.OpCopy, Dst: tmp, Args: args[:1:1]}
				cp.Args[0], args = phi.Args[i], args[1:]
				f.Blocks[p].Instrs[next[p]] = cp
				next[p]++
			}
			// Rewrite the phi in place as a copy from the temporary.
			phi.Op = ir.OpCopy
			phi.Args, args = args[:1:1], args[1:]
			phi.Args[0] = tmp
			phi.PhiPreds = nil
		}
	}
}
