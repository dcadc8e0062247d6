package core

import (
	"fmt"
	"slices"

	"repro/internal/ir"
	"repro/internal/ssa"
)

// realizeStage builds the IR function for pipeline stage k (1-based) from
// the analyzed original. The returned function:
//
//   - keeps exactly the instructions assigned to stage k, and its own copy
//     of each upstream constant it reads,
//   - starts with an OpRecvLS for cut k-1 (k > 1) and ends with an OpSendLS
//     for cut k (k < D) at the unique exit,
//   - re-executes upstream control decisions by switching on received
//     control objects, assigns control-object values on its own branches'
//     edges, and skips regions that contain no stage-k code by jumping to
//     the region's post-dominator,
//   - replaces inner loops owned by other stages with a switch on the
//     loop's control object over its exit landing pads (paper figure 17).
func (st *partitionState) realizeStage(k int) (*ir.Func, error) {
	a, an := st.a, st.an
	D := st.opts.Stages
	terms, err := st.planTerms(k)
	if err != nil {
		return nil, err
	}
	f := st.stageShell(k, terms)
	nOrig := f.NumRegs

	// Incoming and outgoing cuts.
	var recvCut, sendCut *cutInfo
	if k > 1 {
		recvCut = st.cuts[k-2]
	}
	if k < D {
		sendCut = st.cuts[k-1]
	}

	// Slot registers.
	var recvRegs, sendRegs []int
	if recvCut != nil {
		recvRegs = make([]int, recvCut.numSlots)
		for i := range recvRegs {
			recvRegs[i] = f.NewReg()
		}
	}
	if sendCut != nil {
		sendRegs = make([]int, sendCut.numSlots)
		st.soleWriters(k, sendCut, recvCut, recvRegs, sendRegs)
		for i, r := range sendRegs {
			if r < 0 {
				sendRegs[i] = f.NewReg()
			}
		}
	}

	// 1. stageShell kept stage k's instructions in the blocks the stage
	// reaches, each ending in its terminator as planTerms rewired it. 2. A
	// switch that re-executes an upstream decision reads its control object.
	for b, t := range terms {
		if t.kind == termSwitch {
			co, err := st.inReg(k, recvRegs, object{isCtrl: true, branch: t.unit})
			if err != nil {
				return nil, err
			}
			f.Blocks[b].Term().Args[0] = co
		}
	}

	// 3. Rename upstream value uses to received slot registers. Everything
	// left in the shell is stage k's own, a constant it reads, or a
	// terminator; a rewired terminator reads at most a slot register, which
	// is no original value. A constant keeps its register: the stage's copy
	// of the const defines it, unless its block is one the stage never
	// reaches.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for idx, r := range in.Uses() {
				if r >= nOrig || an.DataDef[r] < 0 || st.stageOf[an.DataDef[r]] >= k {
					continue
				}
				if a.isConst[r] {
					if d := a.ps.defAt[r].block; terms[d].kind == termStub {
						return nil, fmt.Errorf("internal error: stage %d reads constant r%d, defined in b%d, which the stage never reaches", k, r, d)
					}
					continue
				}
				nr, err := st.inReg(k, recvRegs, object{reg: r})
				if err != nil {
					return nil, err
				}
				in.Args[idx] = nr
			}
		}
	}

	// 4. Materialize transmissions. Slot writes (including relay copies,
	// which are prepended to the entry) go in first; the receive is
	// prepended last so it ends up ahead of everything.
	if sendCut != nil {
		if err := st.insertSlotWrites(f, k, sendCut, sendRegs, recvRegs); err != nil {
			return nil, err
		}
		// Insert the send before the ret of the unique exit block.
		exit := f.Blocks[a.exitBlock]
		send := &ir.Instr{Op: ir.OpSendLS, Dst: ir.NoReg, Args: sendRegs, Tx: true}
		n := len(exit.Instrs)
		exit.Instrs = append(exit.Instrs, nil)
		copy(exit.Instrs[n:], exit.Instrs[n-1:])
		exit.Instrs[n-1] = send
	}
	if recvCut != nil {
		entry := f.Blocks[f.Entry]
		recv := &ir.Instr{Op: ir.OpRecvLS, Dst: ir.NoReg, Dsts: recvRegs, Tx: true}
		entry.Instrs = append([]*ir.Instr{recv}, entry.Instrs...)
	}

	// 5. Lower remaining phis, each phi's temporary named after it,
	// coalesce the copies that leaves and the slot writes, clean up, and
	// give the stage its own registers.
	f.RegName = st.ws.phiNames(f, st.a.regName)
	ssa.Destruct(f)
	coalesceCopies(f, st.ws)
	cleanupFunc(f, st.ws)
	renumberRegs(f, st.a.regName, st.ws)
	return f, nil
}

// What an analyzed block's terminator becomes in a stage.
const (
	termKeep   = iota // the analyzed terminator
	termSkip          // a jump past a region without the stage's code
	termSwitch        // a switch on an upstream control object
	termStub          // a ret: a block the stage never reaches
)

// stageTerm is what one block's terminator becomes in a stage: its kind,
// the branch or loop unit a skip or switch stands for, and where a skip
// goes.
type stageTerm struct{ kind, unit, target int }

// planTerms returns, in ws.terms, what each analyzed block's terminator
// becomes in stage k. A branch of another stage is re-executed by a switch
// on its control object where stage k has code that depends on it (and the
// branch is upstream), else skipped by a jump to its region's
// post-dominator; the header of another stage's inner loop does the same
// for the loop's exits (paper figure 17). Blocks the stage then never
// reaches — the rest of such loops, skipped regions — are stubs.
func (st *partitionState) planTerms(k int) ([]stageTerm, error) {
	an, ws := st.an, st.ws
	terms := scratch(&ws.terms, len(an.F.Blocks))
	for _, b := range an.F.Blocks {
		if b.Term() == nil {
			continue
		}
		units := an.UnitAt[b.ID]
		u := units[len(units)-1]
		if u < 0 || st.stageOf[u] == k {
			continue // jmp/ret and the stage's own branches and loops stay
		}
		if an.Units[u].IsLoop {
			header, err := st.nodeEntryBlock(an.Units[u].SumNode)
			if err != nil {
				return nil, err
			}
			if b.ID != header {
				continue
			}
		}
		if st.stageOf[u] < k && st.coNeededBy(u, k) {
			terms[b.ID] = stageTerm{kind: termSwitch, unit: u}
			continue
		}
		target, err := st.skipTarget(u)
		if err != nil {
			return nil, err
		}
		terms[b.ID] = stageTerm{kind: termSkip, unit: u, target: target}
	}
	seen := scratch(&ws.bools, len(terms))
	stack := scratch(&ws.ints, len(terms))[:0]
	visit := func(b int) {
		if !seen[b] {
			seen[b] = true
			stack = append(stack, b)
		}
	}
	for visit(an.F.Entry); len(stack) > 0; {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch t := terms[b]; t.kind {
		case termKeep:
			for _, s := range an.F.Blocks[b].Succs() {
				visit(s)
			}
		case termSkip:
			visit(t.target)
		case termSwitch:
			for _, s := range st.ctrlTargets(t.unit) {
				visit(s)
			}
		}
	}
	for b, reached := range seen {
		if !reached {
			terms[b] = stageTerm{kind: termStub}
		}
	}
	return terms, nil
}

// stageShell starts stage k's function: the analyzed function's blocks (same
// IDs, names and loop bounds), each block the stage reaches holding copies
// of the instructions assigned to the stage, of the upstream constants the
// stage reads, and its terminator as terms plans it (a switch's control
// register is filled in by realizeStage); the others share one ret stub.
// Nothing the stage drops is copied first, and the copies come out of one
// allocation per kind (blocks, instructions, operand lists, switch cases).
// The register names come last, from renumberRegs.
func (st *partitionState) stageShell(k int, terms []stageTerm) *ir.Func {
	src := st.an.F
	keeps := func(b, i int, in *ir.Instr) bool {
		if in.Op.IsTerminator() {
			return terms[b].kind == termKeep
		}
		u := st.an.UnitAt[b][i]
		if u < 0 {
			return false
		}
		if st.stageOf[u] == k {
			return true
		}
		return in.Op == ir.OpConst && st.a.isConst[in.Dst] &&
			slices.ContainsFunc(st.an.DataUses[in.Dst], func(use int) bool { return st.stageOf[use] == k })
	}
	nKept, nInts, nCases := 0, 0, 0
	for _, ob := range src.Blocks {
		t := terms[ob.ID]
		if t.kind == termStub {
			continue
		}
		for i, in := range ob.Instrs {
			if keeps(ob.ID, i, in) {
				nKept++
				nInts += len(in.Args) + len(in.Dsts) + len(in.PhiPreds) + len(in.Targets)
				nCases += len(in.Cases)
			}
		}
		switch t.kind {
		case termSkip:
			nKept, nInts = nKept+1, nInts+1
		case termSwitch:
			n := len(st.ctrlTargets(t.unit))
			nKept, nInts, nCases = nKept+1, nInts+1+n, nCases+n-1
		}
	}
	f := &ir.Func{
		Name:    fmt.Sprintf("%s.stage%d", src.Name, k),
		Entry:   src.Entry,
		NumRegs: src.NumRegs,
		Blocks:  make([]*ir.Block, len(src.Blocks)),
	}
	blocks := make([]ir.Block, len(src.Blocks))
	instrs := make([]ir.Instr, nKept)
	ptrs := make([]*ir.Instr, nKept)
	ints := make([]int, nInts)
	cases := make([]int64, nCases)
	stub := []*ir.Instr{{Op: ir.OpRet, Dst: ir.NoReg}}
	// Capacity-limited windows: growing one list reallocates it instead of
	// writing over its neighbour in the slab.
	take := func(n int) []int {
		if n == 0 {
			return nil
		}
		list := ints[:n:n]
		ints = ints[n:]
		return list
	}
	own := func(list []int) []int {
		out := take(len(list))
		copy(out, list)
		return out
	}
	takeCases := func(n int) []int64 {
		if n == 0 {
			return nil
		}
		list := cases[:n:n]
		cases = cases[n:]
		return list
	}
	for bi, ob := range src.Blocks {
		nb := &blocks[bi]
		nb.ID, nb.Name, nb.LoopBound = ob.ID, ob.Name, ob.LoopBound
		f.Blocks[bi] = nb
		t := terms[bi]
		if t.kind == termStub {
			nb.Instrs = stub
			continue
		}
		n := 0
		for i, in := range ob.Instrs {
			if !keeps(ob.ID, i, in) {
				continue
			}
			c := &instrs[n]
			*c = *in
			c.Args, c.Dsts, c.PhiPreds, c.Targets = own(in.Args), own(in.Dsts), own(in.PhiPreds), own(in.Targets)
			c.Cases = takeCases(len(in.Cases))
			copy(c.Cases, in.Cases)
			ptrs[n] = c
			n++
		}
		if t.kind != termKeep {
			c := &instrs[n]
			if t.kind == termSkip {
				*c = ir.Instr{Op: ir.OpJmp, Dst: ir.NoReg, Targets: take(1)}
				c.Targets[0] = t.target
			} else {
				targets := st.ctrlTargets(t.unit)
				*c = ir.Instr{Op: ir.OpSwitch, Dst: ir.NoReg, Args: take(1), Targets: own(targets), Cases: takeCases(len(targets) - 1)}
				for i := range c.Cases {
					c.Cases[i] = st.ctrlValue(t.unit, i)
				}
			}
			ptrs[n] = c
			n++
		}
		nb.Instrs, instrs, ptrs = ptrs[:n:n], instrs[n:], ptrs[n:]
	}
	return f
}

// renumberRegs makes f's registers dense: it renames them in order of first
// mention (block by block; in an instruction, what it defines before what it
// reads) and sets NumRegs to their count. A stage is then a self-contained
// program with a register file of its own, not a window onto the original
// function's: everything that sizes a frame by NumRegs — the interpreter's
// per-iteration clear, exec's lowering tables — pays for the registers the
// stage touches. f.RegName is then built once, under the new numbers: a
// register of the analyzed function keeps its name in orig (indexed by
// register), a register realization added the one f.RegName gives it on
// entry.
func renumberRegs(f *ir.Func, orig []string, ws *workspace) {
	n := f.NumRegs
	if cap(ws.regs) < 2*n {
		// The stages of one call differ by a few slot and phi registers:
		// headroom lets the next stage's tables fit in this one's.
		ws.regs = make([]int32, 2*(n+n/8))
	}
	to, order := ws.regs[:n], ws.regs[n:2*n] // to: old -> new + 1, 0 unseen; order: new -> old
	clear(to)
	k := int32(0)
	rename := func(r int) int {
		if to[r] == 0 {
			order[k] = int32(r)
			k++
			to[r] = k
		}
		return int(to[r]) - 1
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Dst != ir.NoReg {
				in.Dst = rename(in.Dst)
			}
			for i, d := range in.Dsts {
				in.Dsts[i] = rename(d)
			}
			for i, a := range in.Args {
				in.Args[i] = rename(a)
			}
		}
	}
	order = order[:k]
	nameOf := func(r int32) string {
		if int(r) < len(orig) {
			return orig[r]
		}
		return f.RegName[int(r)]
	}
	named := 0 // counted first, so the map is allocated once
	for _, r := range order {
		if nameOf(r) != "" {
			named++
		}
	}
	names := make(map[int]string, named)
	for v, r := range order {
		if s := nameOf(r); s != "" {
			names[v] = s
		}
	}
	f.RegName, f.NumRegs = names, int(k)
}

// phiNames returns the workspace's name table holding the name in orig of
// every phi f defines, for ssa.Destruct to name each phi's temporary after.
func (ws *workspace) phiNames(f *ir.Func, orig []string) map[int]string {
	if ws.names == nil {
		ws.names = make(map[int]string)
	}
	clear(ws.names)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpPhi {
				break
			}
			if s := orig[in.Dst]; s != "" {
				ws.names[in.Dst] = s
			}
		}
	}
	return ws.names
}

// coNeededBy reports whether stage k contains code (transitively)
// control-dependent on branch unit u — if so, the stage's clone must follow
// the original decision through u's region.
func (st *partitionState) coNeededBy(u, k int) bool {
	for _, d := range st.ctrlClosure(u) {
		if st.stageOf[d] == k {
			return true
		}
	}
	return false
}

// ctrlValue is what branch unit u's control object holds when the branch
// took its target i: the target's code when packed (every control object
// is then coded, shareCodes), else i itself.
func (st *partitionState) ctrlValue(u, i int) int64 {
	if st.opts.Tx == TxPacked {
		return st.a.codes[u] + int64(i)
	}
	return int64(i)
}

// skipTarget returns the block to jump to when stage k has nothing inside
// the region controlled by branch unit u: the entry block of the immediate
// post-dominator of u's summarized node.
func (st *partitionState) skipTarget(u int) (int, error) {
	node := st.an.Units[u].SumNode
	ip := st.an.PostDom.Idom[node]
	if ip < 0 {
		return 0, fmt.Errorf("no post-dominator for summarized node %d", node)
	}
	return st.nodeEntryBlock(ip)
}

// nodeEntryBlock returns the unique entry block of a summarized node (the
// block with a predecessor outside the node; for single-block nodes, the
// block itself), from the table Analyze built.
func (st *partitionState) nodeEntryBlock(node int) (int, error) {
	if b := st.a.nodeEntry[node]; b >= 0 {
		return b, nil
	}
	return 0, fmt.Errorf("summarized node %d has no external entry", node)
}

// insertSlotWrites places the unified-transmission slot assignments for the
// outgoing cut of stage k:
//
//   - a value defined in stage k: a copy right after its definition;
//   - a relayed object (arrived over the incoming cut): a copy right after
//     the OpRecvLS... conceptually; since the receive is prepended after
//     this pass runs, relay copies are collected and prepended to the entry
//     block (the receive lands in front of them);
//   - a control object owned by stage k: a constant per distinct target,
//     written directly into the slot register at the top of each target
//     block — a coded object's default target writes none.
//
// A slot soleWriters sends from its writer's own register takes no write at
// all. The copies left — into a slot that merges writers, one relay per
// object even where objects share a slot — are coalesceCopies' to remove.
func (st *partitionState) insertSlotWrites(f *ir.Func, k int, cut *cutInfo, sendRegs, recvRegs []int) error {
	an := st.an
	var relays []*ir.Instr
	for i, o := range cut.objects {
		dst := sendRegs[cut.slots[i]]
		if o.isCtrl && st.stageOf[o.branch] == k {
			targets := st.ctrlTargets(o.branch)
			if st.opts.Tx == TxPacked {
				targets = targets[:len(targets)-1]
			}
			for i, tgt := range targets {
				c := &ir.Instr{Op: ir.OpConst, Dst: dst, Imm: st.ctrlValue(o.branch, i), Tx: true}
				insertAfterPhis(f.Blocks[tgt], c)
			}
			continue
		}
		if !o.isCtrl && st.stageOf[an.DataDef[o.reg]] == k {
			if dst == o.reg {
				continue
			}
			// Copy right after the defining instruction in the clone.
			if err := insertCopyAfterDef(f, st.a.ps.defAt[o.reg].block, o.reg, dst); err != nil {
				return fmt.Errorf("stage %d: %w", k, err)
			}
			continue
		}
		// Relay.
		src, err := st.inReg(k, recvRegs, o)
		if err != nil {
			return err
		}
		if dst == src {
			continue
		}
		relays = append(relays, &ir.Instr{Op: ir.OpCopy, Dst: dst, Args: []int{src}, Tx: true})
	}
	if len(relays) > 0 {
		entry := f.Blocks[f.Entry]
		entry.Instrs = append(relays, entry.Instrs...)
	}
	return nil
}

// soleWriters sets sendRegs[s] to the one register every object in slot s
// of stage k's outgoing cut comes from, and to a negative number where the
// slot merges writers; realizeStage gives those a fresh register. A value
// stage k defines comes from its SSA register, defined once in the stage
// (ssa.Destruct gives each phi a temporary of its own); a relayed object
// from the register its incoming slot arrived in, written once by the
// OpRecvLS; a control object stage k owns from constants, no
// register. Sent from that register, a slot needs no copy: at the exit it
// holds what a copy after the definition would have, and a path that skips
// the definition reads 0, as an unwritten fresh register does. The program
// is the one coalesceCopies makes of a copy into a fresh register, in every
// transmission mode; naming the register first saves making the copy.
func (st *partitionState) soleWriters(k int, cut, recvCut *cutInfo, recvRegs, sendRegs []int) {
	const unset, merged = -2, -1
	for s := range sendRegs {
		sendRegs[s] = unset
	}
	for i, o := range cut.objects {
		src := merged
		switch {
		case o.isCtrl && st.stageOf[o.branch] == k:
		case !o.isCtrl && st.stageOf[st.an.DataDef[o.reg]] == k:
			src = o.reg
		default:
			if from := recvCut.from(o); from >= 0 {
				src = recvRegs[from]
			}
		}
		if s := cut.slots[i]; sendRegs[s] == unset {
			sendRegs[s] = src
		} else if sendRegs[s] != src {
			sendRegs[s] = merged
		}
	}
}

// inReg returns the register carrying upstream object o into stage k:
// recvRegs[s] for the slot s of stage k's incoming cut that holds o.
func (st *partitionState) inReg(k int, recvRegs []int, o object) (int, error) {
	if k == 1 {
		return 0, fmt.Errorf("stage %d: object %+v has no incoming cut", k, o)
	}
	cut := st.cuts[k-2]
	s, ok := cut.slotOf(o)
	if !ok {
		return 0, fmt.Errorf("stage %d: object %+v missing from cut %d live set", k, o, cut.index)
	}
	return recvRegs[s], nil
}

// insertCopyAfterDef finds the instruction defining register r in the stage
// function — in defBlock, where the analysis saw r defined, which the stage
// kept if it owns r — and inserts `dst = copy r` right after it
// (after the phi cluster when the definition is a phi).
func insertCopyAfterDef(f *ir.Func, defBlock, r, dst int) error {
	if defBlock < 0 {
		return fmt.Errorf("register r%d has no definition", r)
	}
	blk := f.Blocks[defBlock]
	for ci, cin := range blk.Instrs {
		if !defines(cin, r) {
			continue
		}
		at := ci + 1
		if cin.Op == ir.OpPhi {
			for at < len(blk.Instrs) && blk.Instrs[at].Op == ir.OpPhi {
				at++
			}
		}
		cp := &ir.Instr{Op: ir.OpCopy, Dst: dst, Args: []int{r}, Tx: true}
		blk.Instrs = append(blk.Instrs, nil)
		copy(blk.Instrs[at+1:], blk.Instrs[at:])
		blk.Instrs[at] = cp
		return nil
	}
	return fmt.Errorf("register r%d defined at b%d in the original but missing from the stage clone", r, blk.ID)
}

// defines reports whether in defines register r.
func defines(in *ir.Instr, r int) bool {
	for _, d := range in.Defines() {
		if d == r {
			return true
		}
	}
	return false
}

// insertAfterPhis inserts an instruction after the phi cluster at the top
// of a block.
func insertAfterPhis(b *ir.Block, in *ir.Instr) {
	at := 0
	for at < len(b.Instrs) && b.Instrs[at].Op == ir.OpPhi {
		at++
	}
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[at+1:], b.Instrs[at:])
	b.Instrs[at] = in
}
