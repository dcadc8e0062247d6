// Package ssa converts mutable IR into static single assignment form and
// back. The pipelining transformation requires SSA (paper step 1.1): with a
// single definition point per value, each variable has exactly one
// definition edge in the flow network, whose capacity models the cost of
// transmitting the variable across a pipeline cut.
package ssa

import (
	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/ir"
)

// Build converts f (mutable form) into pruned SSA form in place.
// Unreachable blocks are removed first.
func Build(f *ir.Func) {
	ir.RemoveUnreachable(f, nil)
	cfg := f.CFG()
	dom := graph.Dominators(cfg, f.Entry)
	df := dom.Frontier(cfg)
	live := dataflow.ComputeLiveness(f)

	nOrig := f.NumRegs

	// Definition sites per original register.
	defBlocks := make([][]int, nOrig)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, d := range in.Defines() {
				defBlocks[d] = append(defBlocks[d], b.ID)
			}
		}
	}

	// Insert phi nodes at the iterated dominance frontier of each
	// register's definition sites, pruned by liveness. onWork[b] and
	// placed[b] equal v+1 while v is at hand.
	origOf := make(map[*ir.Instr]int) // phi -> the original register it merges
	hasPhi := make([]bool, len(f.Blocks))
	onWork, placed := make([]int, len(f.Blocks)), make([]int, len(f.Blocks))
	var work []int
	for v := 0; v < nOrig; v++ {
		if len(defBlocks[v]) == 0 {
			continue
		}
		work = append(work[:0], defBlocks[v]...)
		for _, b := range work {
			onWork[b] = v + 1
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, j := range df[b] {
				if placed[j] == v+1 || !live.In[j].Has(v) {
					continue
				}
				placed[j] = v + 1
				preds := cfg.Preds(j)
				phi := &ir.Instr{
					Op:       ir.OpPhi,
					Dst:      v, // renamed below
					Args:     make([]int, len(preds)),
					PhiPreds: append([]int(nil), preds...),
				}
				for i := range phi.Args {
					phi.Args[i] = v // placeholder: original reg, renamed below
				}
				blk := f.Blocks[j]
				blk.Instrs = append([]*ir.Instr{phi}, blk.Instrs...)
				origOf[phi], hasPhi[j] = v, true
				if onWork[j] != v+1 {
					onWork[j] = v + 1
					work = append(work, j)
				}
			}
		}
	}

	// Rename along the dominator tree.
	children := make([][]int, len(f.Blocks))
	for b := 0; b < len(f.Blocks); b++ {
		if b == f.Entry {
			continue
		}
		if p := dom.Idom[b]; p >= 0 {
			children[p] = append(children[p], b)
		}
	}

	stacks := make([][]int, nOrig)

	var undefReg = -1 // lazily created "undefined" zero constant
	getUndef := func() int {
		if undefReg >= 0 {
			return undefReg
		}
		undefReg = f.NewReg()
		entry := f.Blocks[f.Entry]
		c := &ir.Instr{Op: ir.OpConst, Dst: undefReg, Imm: 0}
		// Insert after any phis at the entry (entry has no preds, so in
		// practice at the very front).
		entry.Instrs = append([]*ir.Instr{c}, entry.Instrs...)
		return undefReg
	}
	top := func(v int) int {
		s := stacks[v]
		if len(s) == 0 {
			return getUndef()
		}
		return s[len(s)-1]
	}

	// pushed holds the original registers each block on the rename path
	// pushed, one segment per block, the deepest last.
	var pushed []int
	var rename func(b int)
	rename = func(b int) {
		blk := f.Blocks[b]
		base := len(pushed)
		for _, in := range blk.Instrs {
			if in.Op != ir.OpPhi {
				args := in.Uses()
				for i, u := range args {
					if u < nOrig {
						args[i] = top(u)
					}
				}
			}
			for i, d := range in.Defines() {
				if d >= nOrig {
					continue
				}
				nr := f.NewReg()
				if name, ok := f.RegName[d]; ok {
					f.RegName[nr] = name
				}
				stacks[d] = append(stacks[d], nr)
				pushed = append(pushed, d)
				in.SetDef(i, nr)
			}
		}
		// Fill phi operands in CFG successors.
		for _, s := range cfg.Succs(b) {
			if !hasPhi[s] {
				continue
			}
			for _, phi := range f.Blocks[s].Instrs {
				if phi.Op != ir.OpPhi {
					break
				}
				v, ok := origOf[phi]
				if !ok {
					continue
				}
				for i, p := range phi.PhiPreds {
					if p == b {
						phi.Args[i] = top(v)
					}
				}
			}
		}
		for _, c := range children[b] {
			rename(c)
		}
		for _, v := range pushed[base:] {
			stacks[v] = stacks[v][:len(stacks[v])-1]
		}
		pushed = pushed[:base]
	}
	rename(f.Entry)
}
