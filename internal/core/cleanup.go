package core

import (
	"slices"

	"repro/internal/ir"
)

// cleanupFunc simplifies a realized stage function to a fixed point:
// unreachable-block removal, jump threading through empty blocks, trivial
// branch elimination, straight-line block merging, switch-chain folding and
// dead pure-code elimination. It operates on mutable (phi-free) IR; every
// pass takes its arrays from ws.
func cleanupFunc(f *ir.Func, ws *workspace) {
	for changed := true; changed; {
		changed = false
		ws.ints = ir.RemoveUnreachable(f, ws.ints)
		if threadJumps(f, ws) {
			changed = true
		}
		if collapseTrivialBranches(f) {
			changed = true
		}
		if mergeStraightLine(f, ws) {
			changed = true
		}
		if removeDeadCode(f, ws) {
			changed = true
		}
		// Switch chains fold once the rest has settled: each link is then
		// a block holding its switch alone.
		if !changed {
			changed = foldSwitchChains(f, ws)
		}
	}
	ws.ints = ir.RemoveUnreachable(f, ws.ints)
}

// threadJumps retargets edges that point at blocks containing only an
// unconditional jump.
func threadJumps(f *ir.Func, ws *workspace) bool {
	// forward[b] = ultimate destination of the empty-jump chain starting
	// at b (with cycle protection); visit[b] == stamp marks b as seen by
	// the current resolve.
	n := len(f.Blocks)
	buf := scratch(&ws.ints, 2*n)
	forward, visit := buf[:n], buf[n:]
	for i := range forward {
		forward[i] = i
	}
	isTrivial := func(b *ir.Block) (int, bool) {
		if len(b.Instrs) == 1 && b.Instrs[0].Op == ir.OpJmp {
			return b.Instrs[0].Targets[0], true
		}
		return 0, false
	}
	for _, b := range f.Blocks {
		if t, ok := isTrivial(b); ok {
			forward[b.ID] = t
		}
	}
	stamp := 0
	resolve := func(b int) int {
		stamp++
		for forward[b] != b && visit[b] != stamp {
			visit[b] = stamp
			b = forward[b]
		}
		return b
	}
	changed := false
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			continue
		}
		for i, tgt := range t.Targets {
			r := resolve(tgt)
			// Never retarget to the block itself via threading the entry.
			if r != tgt {
				t.Targets[i] = r
				changed = true
			}
		}
	}
	// The entry itself may be a trivial jump; keep it (RemoveUnreachable
	// plus merging will fold it).
	return changed
}

// collapseTrivialBranches turns conditional branches and switches whose
// targets are all identical into unconditional jumps.
func collapseTrivialBranches(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || (t.Op != ir.OpBr && t.Op != ir.OpSwitch) {
			continue
		}
		same := true
		for _, tgt := range t.Targets {
			if tgt != t.Targets[0] {
				same = false
			}
		}
		if same {
			t.Op = ir.OpJmp
			t.Args = nil
			t.Cases = nil
			t.Targets = t.Targets[:1]
			changed = true
		}
	}
	return changed
}

// mergeStraightLine merges a block into its unique successor when that
// successor has no other predecessors, absorbing whole chains in one pass:
// an absorbed block is left as an unreachable ret stub, so the counts taken
// at the start of the pass never undercount a predecessor.
func mergeStraightLine(f *ir.Func, ws *workspace) bool {
	preds := predCounts(f, ws)
	changed := false
	for _, b := range f.Blocks {
		for t := b.Term(); t != nil && t.Op == ir.OpJmp; t = b.Term() {
			succ := t.Targets[0]
			if succ == b.ID || succ == f.Entry || preds[succ] != 1 {
				break
			}
			sb := f.Blocks[succ]
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], sb.Instrs...)
			sb.Instrs = []*ir.Instr{{Op: ir.OpRet, Dst: ir.NoReg}} // unreachable stub
			changed = true
		}
	}
	return changed
}

// foldSwitchChains folds a chain of blocks that hold only switches on one
// register — the one-case switches a stage tests shared control objects
// with — into the switch at its head: while a switch's default successor is
// reached by nothing else, not even by one of the switch's own cases, and
// holds nothing but a switch on the same register, its cases and successors
// join the head's. The chain tests the register case by case and the folded
// switch takes the first case that matches, so both go where the first match
// sends them, whichever links the passes meet first.
func foldSwitchChains(f *ir.Func, ws *workspace) bool {
	preds := predCounts(f, ws)
	changed := false
	for _, b := range f.Blocks {
		t := b.Term()
		for t != nil && t.Op == ir.OpSwitch {
			d := t.Targets[len(t.Targets)-1]
			next := f.Blocks[d].Instrs
			if d == b.ID || d == f.Entry || preds[d] != 1 || len(next) != 1 ||
				next[0].Op != ir.OpSwitch || next[0].Args[0] != t.Args[0] ||
				slices.Contains(t.Targets[:len(t.Targets)-1], d) {
				break
			}
			t.Cases = append(t.Cases, next[0].Cases...)
			t.Targets = append(t.Targets[:len(t.Targets)-1], next[0].Targets...)
			f.Blocks[d].Instrs = []*ir.Instr{{Op: ir.OpRet, Dst: ir.NoReg}} // unreachable stub
			changed = true
		}
	}
	return changed
}

// predCounts returns, in ws.ints, how many distinct blocks branch to each
// block; no graph is built.
func predCounts(f *ir.Func, ws *workspace) []int {
	preds := scratch(&ws.ints, len(f.Blocks))
	for _, b := range f.Blocks {
		succs := b.Succs()
		for i, s := range succs {
			if !slices.Contains(succs[:i], s) {
				preds[s]++
			}
		}
	}
	return preds
}

// removeDeadCode drops pure instructions whose destination register is
// never read anywhere in the function.
func removeDeadCode(f *ir.Func, ws *workspace) bool {
	used := scratch(&ws.bools, f.NumRegs)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, u := range in.Uses() {
				used[u] = true
			}
		}
	}
	changed := false
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op.IsPure() && in.Op != ir.OpPhi && in.Dst >= 0 && !used[in.Dst] && !in.Tx {
				changed = true
				continue
			}
			out = append(out, in)
		}
		b.Instrs = out
	}
	return changed
}
