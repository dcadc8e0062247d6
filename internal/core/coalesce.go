package core

import (
	"math/bits"
	"slices"

	"repro/internal/ir"
)

// coalesceCopies removes copies from a phi-free stage function by renaming:
// `d = copy a` goes, and d and a become one register, when the two never
// hold different values at a point where both are live. That is Chaitin's
// test on the stage's own liveness: d and a interfere when one is defined
// while the other is live after the definition, except at a copy of one
// into the other, which leaves them equal. Every register reads 0 at entry,
// so registers live into the entry are equal there and need no edge.
//
// It takes the copies realization makes: the two per phi ssa.Destruct
// leaves, relay copies and slot writes into a slot that merges writers. It
// works in one pass: liveness once, copies in the order a depth-first walk
// meets them, the interference rows of two registers merged when they join,
// and one sweep that renames every register to its class's lowest-numbered
// member (which keeps the analyzed function's names where it can). Every
// array comes from ws.
func coalesceCopies(f *ir.Func, ws *workspace) {
	// The walk lists the reachable blocks in postorder and the copies in
	// preorder, and notes whether an edge closes a cycle. Only registers a
	// copy names can join a class, so only they are numbered, and liveness
	// and interference are kept for them alone: to[r] is r's number + 1
	// (0: no copy names r), reg[v] the register numbered v.
	nb := len(f.Blocks)
	to := scratch(&ws.regs, f.NumRegs)
	reg, copies := ws.coal[:0], ws.copies[:0]
	buf := scratch(&ws.ints, 5*nb)
	// state: 1 on the stack, 2 done; held: the blocks holding copies
	state, stack, post, held := buf[:nb], buf[nb:nb], buf[3*nb:3*nb], buf[4*nb:4*nb]
	cyclic := false
	visit := func(b int) {
		state[b] = 1
		stack = append(stack, b, 0)
		for _, in := range f.Blocks[b].Instrs {
			if in.Op != ir.OpCopy {
				continue
			}
			if len(held) == 0 || held[len(held)-1] != b {
				held = append(held, b)
			}
			copies = append(copies, in)
			for _, r := range [2]int{in.Dst, in.Args[0]} {
				if to[r] == 0 {
					reg = append(reg, int32(r))
					to[r] = int32(len(reg))
				}
			}
		}
	}
	visit(f.Entry)
	for len(stack) > 0 {
		top := len(stack) - 2
		b := stack[top]
		if succs := f.Blocks[b].Succs(); stack[top+1] < len(succs) {
			s := succs[stack[top+1]]
			stack[top+1]++
			switch state[s] {
			case 0:
				visit(s)
			case 1:
				cyclic = true
			}
			continue
		}
		state[b] = 2
		post = append(post, b)
		stack = stack[:top]
	}
	m := len(reg)
	if m == 0 {
		return
	}
	// touched lists, after the copies, every other instruction that names
	// a register a copy names: all the rename sweep has to visit.
	touched := copies
	reg = slices.Grow(reg, m)[:2*m]
	ws.coal = reg
	reg, parent := reg[:m], reg[m:]
	for v := range parent {
		parent[v] = int32(v)
	}
	// id is r's number, -1 for a register no copy names.
	id := func(r int) int {
		if r < 0 {
			return -1
		}
		return int(to[r]) - 1
	}
	// def is the number of the register in defines other than a receive's,
	// -1 for none or one no copy names.
	def := func(in *ir.Instr) int {
		if in.Op.HasDst() || in.Op == ir.OpCall {
			return id(in.Dst)
		}
		return -1
	}
	set := func(s []uint64, v int) { s[v/64] |= 1 << (v % 64) }

	// Rows of W words: each block's live-in set, and with a cycle its
	// upward-exposed uses and its definitions; the running set; one
	// interference row per register.
	W := (m + 63) / 64
	words := scratch(&ws.words, (3*nb+1+m)*W)
	row := func(i int) []uint64 { return words[i*W : (i+1)*W] }
	live := row(3 * nb)
	adj := func(v int) []uint64 { return row(3*nb + 1 + v) }
	// liveOut sets live to what is live out of b.
	liveOut := func(b *ir.Block) {
		clear(live)
		for _, s := range b.Succs() {
			for i, w := range row(s) {
				live[i] |= w
			}
		}
	}

	// Without a cycle every successor of a block precedes it in postorder,
	// so the interference walk below finds each live-in set it reads. With
	// one, liveness is solved first.
	if cyclic {
		for _, bi := range post {
			gen, kill := row(nb+bi), row(2*nb+bi)
			for _, in := range f.Blocks[bi].Instrs {
				for _, a := range in.Args {
					if v := id(a); v >= 0 && kill[v/64]&(1<<(v%64)) == 0 {
						set(gen, v)
					}
				}
				if v := def(in); v >= 0 {
					set(kill, v)
				}
				for _, d := range in.Dsts {
					if v := id(d); v >= 0 {
						set(kill, v)
					}
				}
			}
		}
		for changed := true; changed; {
			changed = false
			for _, bi := range post {
				liveOut(f.Blocks[bi])
				in, gen, kill := row(bi), row(nb+bi), row(2*nb+bi)
				for i, w := range live {
					if w = w&^kill[i] | gen[i]; w != in[i] {
						in[i] = w
						changed = true
					}
				}
			}
		}
	}

	// Interference: a definition against everything live after it, the
	// source of a copy excepted.
	conflict := func(v, src int) {
		r := adj(v)
		for wi, w := range live {
			for ; w != 0; w &= w - 1 {
				if u := wi*64 + bits.TrailingZeros64(w); u != v && u != src {
					r[wi] |= w & -w
					set(adj(u), v)
				}
			}
		}
	}
	for _, bi := range post {
		b := f.Blocks[bi]
		liveOut(b)
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			names := false
			if v := def(in); v >= 0 {
				src := -1
				if in.Op == ir.OpCopy {
					src = id(in.Args[0])
				}
				conflict(v, src)
				live[v/64] &^= 1 << (v % 64)
				names = true
			}
			// A receive defines its registers at once.
			for _, d := range in.Dsts {
				if v := id(d); v >= 0 {
					conflict(v, -1)
				}
			}
			for _, d := range in.Dsts {
				if v := id(d); v >= 0 {
					live[v/64] &^= 1 << (v % 64)
					names = true
				}
			}
			for _, a := range in.Args {
				if v := id(a); v >= 0 {
					set(live, v)
					names = true
				}
			}
			if names && in.Op != ir.OpCopy {
				touched = append(touched, in)
			}
		}
		copy(row(bi), live)
	}

	find := func(v int) int {
		for int(parent[v]) != v {
			parent[v] = parent[parent[v]]
			v = int(parent[v])
		}
		return v
	}
	for _, in := range copies {
		x, y := find(id(in.Dst)), find(id(in.Args[0]))
		if x == y || adj(x)[y/64]&(1<<(y%64)) != 0 {
			continue
		}
		if reg[y] < reg[x] {
			x, y = y, x
		}
		parent[y] = int32(x)
		ax := adj(x)
		for wi, w := range adj(y) {
			ax[wi] |= w
			for ; w != 0; w &= w - 1 {
				set(adj(wi*64+bits.TrailingZeros64(w)), x)
			}
		}
	}

	// Each register a copy names now maps to its class's representative,
	// in to, so the sweep reads one table.
	for v, r := range reg {
		to[r] = reg[find(v)] + 1
	}
	rename := func(r int) int {
		if r >= 0 && to[r] != 0 {
			return int(to[r]) - 1
		}
		return r
	}
	for _, in := range touched {
		in.Dst = rename(in.Dst)
		for i, d := range in.Dsts {
			in.Dsts[i] = rename(d)
		}
		for i, a := range in.Args {
			in.Args[i] = rename(a)
		}
	}
	clear(touched) // the workspace outlives the stage
	ws.copies = touched[:0]
	for _, bi := range held {
		b := f.Blocks[bi]
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op != ir.OpCopy || in.Dst != in.Args[0] {
				kept = append(kept, in)
			}
		}
		b.Instrs = kept
	}
}
