package ir

import "repro/internal/graph"

// CFG builds the control-flow digraph of f over block IDs.
func (f *Func) CFG() *graph.Digraph {
	g := graph.Build(len(f.Blocks), func(add func(u, v int)) {
		for _, b := range f.Blocks {
			for _, s := range b.Succs() {
				add(b.ID, s)
			}
		}
	})
	g.Dedup()
	return g
}

// ExitBlocks returns the IDs of blocks terminated by OpRet.
func (f *Func) ExitBlocks() []int {
	var exits []int
	for _, b := range f.Blocks {
		if t := b.Term(); t != nil && t.Op == OpRet {
			exits = append(exits, b.ID)
		}
	}
	return exits
}

// CanonicalizeExit rewrites f so that exactly one block ends in OpRet: all
// other OpRet terminators become jumps to that block. Several analyses
// (post-dominators, cut liveness) want a unique exit. Returns the exit
// block's ID.
func (f *Func) CanonicalizeExit() int {
	exits := f.ExitBlocks()
	if len(exits) == 1 {
		return exits[0]
	}
	exit := f.NewBlock("exit")
	exit.Instrs = []*Instr{{Op: OpRet, Dst: NoReg}}
	for _, id := range exits {
		b := f.Blocks[id]
		t := b.Term()
		t.Op = OpJmp
		t.Targets = []int{exit.ID}
		t.Args = nil
	}
	if len(exits) == 0 {
		// Degenerate: no return anywhere (should not happen for lowered
		// PPC). Leave the new exit unreachable; callers verify.
		_ = exit
	}
	return exit.ID
}

// Postorder returns the reachable blocks of f in postorder from entry.
func (f *Func) Postorder() []*Block {
	seen := make([]bool, len(f.Blocks))
	var order []*Block
	type frame struct {
		b    *Block
		next int
	}
	stack := []frame{{b: f.Blocks[f.Entry]}}
	seen[f.Entry] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		succs := fr.b.Succs()
		if fr.next < len(succs) {
			s := succs[fr.next]
			fr.next++
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{b: f.Blocks[s]})
			}
			continue
		}
		order = append(order, fr.b)
		stack = stack[:len(stack)-1]
	}
	return order
}
