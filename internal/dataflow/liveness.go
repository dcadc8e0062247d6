// Package dataflow implements the register-level dataflow analysis used by
// the pipelining transformation: backward liveness. It operates on either
// mutable or SSA-form IR (it only relies on each instruction's Defines and
// Uses sets).
package dataflow

import (
	"repro/internal/bitset"
	"repro/internal/ir"
)

// Liveness holds per-block live-in/live-out register sets.
type Liveness struct {
	In  []*bitset.Set // indexed by block ID
	Out []*bitset.Set
}

// ComputeLiveness runs the standard backward may-liveness analysis over f.
// Phi instructions are handled with SSA edge semantics: a phi's operand for
// predecessor P is live out of P (only), and the phi's result is defined at
// the top of its block.
func ComputeLiveness(f *ir.Func) *Liveness {
	n := len(f.Blocks)
	// Every set comes out of one allocation: five per block, then the two
	// scratch sets of the fixpoint loop.
	sets, ptrs := bitset.NewSets(5*n+2, f.NumRegs), make([]*bitset.Set, 5*n)
	for i := range ptrs {
		ptrs[i] = &sets[i]
	}
	lv := &Liveness{In: ptrs[:n:n], Out: ptrs[n : 2*n : 2*n]}

	// Per-block gen (upward-exposed uses) and kill (defs) sets, excluding
	// phi operands (handled edge-wise below).
	gen, kill := ptrs[2*n:3*n], ptrs[3*n:4*n]
	for _, b := range f.Blocks {
		g, k := gen[b.ID], kill[b.ID]
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				// The phi def kills; operands belong to predecessors.
				for _, d := range in.Defines() {
					k.Set(d)
				}
				continue
			}
			for _, u := range in.Uses() {
				if !k.Has(u) {
					g.Set(u)
				}
			}
			for _, d := range in.Defines() {
				k.Set(d)
			}
		}
	}

	// phiUses[p] = registers used by phis in successors of p, via the edge
	// from p.
	phiUses := ptrs[4*n:]
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpPhi {
				break
			}
			for i, p := range in.PhiPreds {
				phiUses[p].Set(in.Args[i])
			}
		}
	}

	cfg := f.CFG()
	post := f.Postorder()
	// Two scratch sets serve every transfer-function evaluation: a changed
	// block swaps its stored sets with the scratch pair instead of
	// allocating fresh ones, so the fixpoint loop allocates nothing.
	scratchOut, scratchIn := &sets[5*n], &sets[5*n+1]
	changed := true
	for changed {
		changed = false
		// Iterate in postorder for fast convergence of a backward problem.
		for _, b := range post {
			out := scratchOut
			out.Reset()
			for _, s := range cfg.Succs(b.ID) {
				out.Union(lv.In[s])
			}
			out.Union(phiUses[b.ID])
			in := scratchIn
			in.CopyFrom(out)
			in.Diff(kill[b.ID])
			in.Union(gen[b.ID])
			if !out.Equal(lv.Out[b.ID]) || !in.Equal(lv.In[b.ID]) {
				lv.Out[b.ID], scratchOut = out, lv.Out[b.ID]
				lv.In[b.ID], scratchIn = in, lv.In[b.ID]
				changed = true
			}
		}
	}
	return lv
}
