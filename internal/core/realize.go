package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/ir"
	"repro/internal/ssa"
)

// newState returns the state of one call realizing stageOf at opts in ws,
// with each stage's instruction positions listed (index).
func (a *Analysis) newState(opts Options, stageOf []int, ws *workspace) *partitionState {
	st := &partitionState{opts: opts, a: a, an: a.an, stageOf: stageOf, ws: ws}
	st.index()
	return st
}

// index lists in ws, once per call, where the instructions each stage's
// shell copies sit (stagePos): stage k's list holds, in program order, the
// positions of its own units' instructions (terminators aside, which
// planTerms decides) and of the constants of other stages it reads. At D=1
// that is the analysis's body, which the call reads in place.
func (st *partitionState) index() {
	a, an, ws, D := st.a, st.an, st.ws, st.opts.Stages
	if D == 1 {
		return
	}
	// readers returns the stages, as bits, other than its own that read
	// unit u's register if u is a constant.
	readers := func(u int) (m uint64) {
		if r := a.constOf[u]; r >= 0 {
			for _, use := range an.DataUses[r] {
				m |= 1 << (st.stageOf[use] - 1)
			}
			m &^= 1 << (st.stageOf[u] - 1)
		}
		return m
	}
	// Each list is sized from the units first (a branch unit's count
	// includes its terminator), so a workspace allocates it at most once.
	need := scratch(&ws.stageLen, D)
	for u, ps := range a.ps.unitPos {
		need[st.stageOf[u]-1] += len(ps)
		for m := readers(u); m != 0; m &= m - 1 {
			need[bits.TrailingZeros64(m)]++
		}
	}
	for len(ws.stagePos) < D {
		ws.stagePos = append(ws.stagePos, nil)
	}
	lists := ws.stagePos[:D]
	for s := range lists {
		lists[s] = slices.Grow(lists[s][:0], need[s])
	}
	for _, p := range a.body {
		u := an.UnitAt[p.block][p.idx]
		s := st.stageOf[u] - 1
		lists[s] = append(lists[s], p)
		for m := readers(u); m != 0; m &= m - 1 {
			s := bits.TrailingZeros64(m)
			lists[s] = append(lists[s], p)
		}
	}
}

// stagePos returns where the instructions stage k's shell copies sit.
func (st *partitionState) stagePos(k int) []pos {
	if st.opts.Stages == 1 {
		return st.a.body
	}
	return st.ws.stagePos[k-1]
}

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
	f, err := st.stageFunc(k)
	if err != nil {
		return nil, err
	}
	// Lower the phis, each phi's temporary named after it, coalesce the
	// copies that leaves and the slot writes, clean up, and give the stage
	// its own registers.
	ssa.Destruct(f)
	coalesceCopies(f, st.ws)
	cleanupFunc(f, st.ws)
	renumberRegs(f, st.a.regName, st.ws)
	return f, nil
}

// stageFunc is realizeStage up to ssa.Destruct: stage k's shell with its
// transmissions in place.
func (st *partitionState) stageFunc(k int) (*ir.Func, error) {
	a := st.a
	var recvCut, sendCut *cutInfo
	if k > 1 {
		recvCut = st.cuts[k-2]
	}
	if k < st.opts.Stages {
		sendCut = st.cuts[k-1]
	}
	terms, reached, err := st.planTerms(k)
	if err != nil {
		return nil, err
	}
	f, recvRegs, err := st.stageShell(k, terms, reached, recvCut)
	if err != nil {
		return nil, err
	}
	var sendRegs []int
	if sendCut != nil {
		sendRegs = make([]int, sendCut.numSlots)
		st.soleWriters(k, sendCut, recvCut, recvRegs, sendRegs)
		for i, r := range sendRegs {
			if r < 0 {
				sendRegs[i] = f.NewReg()
			}
		}
	}

	// Materialize transmissions. Slot writes (including relay copies,
	// which are prepended to the entry) go in first; the receive is
	// prepended last so it ends up ahead of everything.
	if sendCut != nil {
		if err := st.insertSlotWrites(f, k, terms, sendCut, sendRegs, recvRegs); err != nil {
			return nil, err
		}
		// Insert the send before the ret of the unique exit block.
		t := terms[a.exitBlock]
		if t.kind == termStub {
			return nil, fmt.Errorf("internal error: stage %d never reaches the exit b%d", k, a.exitBlock)
		}
		exit := f.Blocks[t.at]
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
	return f, nil
}

// What an analyzed block's terminator becomes in a stage.
const (
	termStub   = iota // none: a block the stage never reaches
	termKeep          // the analyzed terminator
	termSkip          // a jump past a region without the stage's code
	termSwitch        // a switch on an upstream control object
)

// stageTerm is what one block's terminator becomes in a stage: its kind,
// the branch or loop unit a skip or switch stands for, and where a skip
// goes; at is the block's number in the stage.
type stageTerm struct{ kind, unit, target, at int }

// planTerms returns, in ws.terms, what each analyzed block's terminator
// becomes in stage k, and in ws.reached, ascending, the blocks the stage
// reaches, each numbered by its place there. A branch of another stage is
// re-executed by a switch on its control object where stage k has code
// that depends on it (and the branch is upstream), else skipped by a jump
// to its region's post-dominator; the header of another stage's inner loop
// does the same for the loop's exits (paper figure 17). Only the blocks the
// stage reaches are planned: the rest of such loops and the skipped regions
// stay termStub.
func (st *partitionState) planTerms(k int) ([]stageTerm, []int, error) {
	an, ws := st.an, st.ws
	terms := scratch(&ws.terms, len(an.F.Blocks))
	stack := ws.ints[:0]
	visit := func(b int) error {
		if terms[b].kind != termStub {
			return nil
		}
		t, err := st.termOf(k, b)
		terms[b] = t
		stack = append(stack, b)
		return err
	}
	err := visit(an.F.Entry)
	for err == nil && len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch t := terms[b]; t.kind {
		case termKeep:
			for _, s := range an.F.Blocks[b].Succs() {
				if err = visit(s); err != nil {
					break
				}
			}
		case termSkip:
			err = visit(t.target)
		case termSwitch:
			for _, s := range st.ctrlTargets(t.unit) {
				if err = visit(s); err != nil {
					break
				}
			}
		}
	}
	ws.ints = stack
	if err != nil {
		return nil, nil, err
	}
	reached := ws.reached[:0]
	for b, t := range terms {
		if t.kind != termStub {
			terms[b].at = len(reached)
			reached = append(reached, b)
		}
	}
	ws.reached = reached
	return terms, reached, nil
}

// termOf plans block b's terminator in stage k, as planTerms describes.
func (st *partitionState) termOf(k, b int) (stageTerm, error) {
	an := st.an
	keep := stageTerm{kind: termKeep}
	if an.F.Blocks[b].Term() == nil {
		return keep, nil
	}
	units := an.UnitAt[b]
	u := units[len(units)-1]
	if u < 0 || st.stageOf[u] == k {
		return keep, nil // jmp/ret and the stage's own branches and loops stay
	}
	if an.Units[u].IsLoop {
		header, err := st.nodeEntryBlock(an.Units[u].SumNode)
		if err != nil || b != header {
			return keep, err
		}
	}
	if st.stageOf[u] < k && st.coNeededBy(u, k) {
		return stageTerm{kind: termSwitch, unit: u}, nil
	}
	target, err := st.skipTarget(u)
	return stageTerm{kind: termSkip, unit: u, target: target}, err
}

// stageShell starts stage k's function: one block per block the stage
// reaches (reached, in that order, with their names and loop bounds), each
// holding copies of the stage's instructions and of the upstream constants
// it reads (stagePos), and its terminator as terms plans it, targets
// renumbered; a phi loses the operands of predecessors the stage never
// reaches. Its registers are the ones those copies name, in the analysis's
// order (ws.regOf maps them back), then recvRegs, one per slot of the
// incoming cut: an upstream value the stage reads is renamed to its slot's,
// and so is the control object a switch tests. Each phi's name is entered
// in ws.names, for ssa.Destruct to name the phi's temporary after. The
// copies come out of one allocation per kind (blocks, instructions, operand
// lists, switch cases).
func (st *partitionState) stageShell(k int, terms []stageTerm, reached []int, recvCut *cutInfo) (*ir.Func, []int, error) {
	a, an, ws := st.a, st.an, st.ws
	src := an.F
	list := st.stagePos(k)
	// span returns the positions in block b; the blocks come in order.
	next := 0
	span := func(b int) []pos {
		for next < len(list) && list[next].block < b {
			next++ // a block the stage never reaches
		}
		lo := next
		for next < len(list) && list[next].block == b {
			next++
		}
		return list[lo:next]
	}
	// Count what the copies take.
	nKept, nInts, nCases := 0, 0, 0
	size := func(in *ir.Instr) {
		nKept++
		nInts += len(in.Args) + len(in.Dsts) + len(in.PhiPreds) + len(in.Targets)
		nCases += len(in.Cases)
	}
	for _, b := range reached {
		for _, p := range span(b) {
			size(src.Blocks[b].Instrs[p.idx])
		}
		switch t := terms[b]; t.kind {
		case termKeep:
			if term := src.Blocks[b].Term(); term != nil {
				size(term)
			}
		case termSkip:
			nKept, nInts = nKept+1, nInts+1
		case termSwitch:
			n := len(st.ctrlTargets(t.unit))
			nKept, nInts, nCases = nKept+1, nInts+1+n, nCases+n-1
		}
	}
	blocks := make([]ir.Block, len(reached))
	fblocks := make([]*ir.Block, len(reached))
	slab := make([]ir.Instr, nKept)
	instrs := slab
	ptrs := make([]*ir.Instr, nKept)
	ints := make([]int, nInts)
	cases := make([]int64, nCases)
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
	takeCases := func(n int) []int64 {
		if n == 0 {
			return nil
		}
		list := cases[:n:n]
		cases = cases[n:]
		return list
	}

	// Copy under the analysis's register names, marking each, except that
	// an upstream read names its incoming slot s as -1-s.
	set := scratch(&ws.regSet, (src.NumRegs+63)/64)
	mark := func(r int) int {
		set[uint(r)/64] |= 1 << (uint(r) % 64)
		return r
	}
	var err error
	// read is what a copy reads for analyzed register r. The first stage
	// reads nothing upstream.
	read := func(r int) int {
		if k == 1 {
			return mark(r)
		}
		if d := an.DataDef[r]; d < 0 || st.stageOf[d] >= k {
			return mark(r)
		}
		if a.isConst[r] {
			if b := a.ps.defAt[r].block; terms[b].kind == termStub {
				err = cmp.Or(err, fmt.Errorf("internal error: stage %d reads constant r%d, defined in b%d, which the stage never reaches", k, r, b))
			}
			return mark(r)
		}
		s, e := st.inSlot(k, object{reg: r})
		err = cmp.Or(err, e)
		return -1 - s
	}
	next, n := 0, 0
	copyOf := func(in *ir.Instr) {
		c := &instrs[n]
		*c = *in
		if in.Dst != ir.NoReg {
			mark(in.Dst)
		}
		c.Dsts, c.Targets = take(len(in.Dsts)), take(len(in.Targets))
		for i, d := range in.Dsts {
			c.Dsts[i] = mark(d)
		}
		for i, t := range in.Targets {
			c.Targets[i] = terms[t].at
		}
		c.Args, c.PhiPreds = take(len(in.Args)), take(len(in.PhiPreds))
		if in.Op != ir.OpPhi {
			for i, r := range in.Args {
				c.Args[i] = read(r)
			}
		} else {
			m := 0
			for i, r := range in.Args {
				if p := terms[in.PhiPreds[i]]; p.kind != termStub {
					c.Args[m], c.PhiPreds[m] = read(r), p.at
					m++
				}
			}
			c.Args, c.PhiPreds = c.Args[:m:m], c.PhiPreds[:m:m]
		}
		c.Cases = takeCases(len(in.Cases))
		copy(c.Cases, in.Cases)
		ptrs[n] = c
		n++
	}
	for bi, b := range reached {
		ob := src.Blocks[b]
		nb := &blocks[bi]
		nb.ID, nb.Name, nb.LoopBound = bi, ob.Name, ob.LoopBound
		fblocks[bi] = nb
		n = 0
		for _, p := range span(b) {
			copyOf(ob.Instrs[p.idx])
		}
		switch t := terms[b]; t.kind {
		case termKeep:
			if term := ob.Term(); term != nil {
				copyOf(term)
			}
		case termSkip:
			c := &instrs[n]
			*c = ir.Instr{Op: ir.OpJmp, Dst: ir.NoReg, Targets: take(1)}
			c.Targets[0] = terms[t.target].at
			ptrs[n] = c
			n++
		case termSwitch:
			targets := st.ctrlTargets(t.unit)
			c := &instrs[n]
			*c = ir.Instr{Op: ir.OpSwitch, Dst: ir.NoReg, Args: take(1), Targets: take(len(targets)), Cases: takeCases(len(targets) - 1)}
			s, e := st.inSlot(k, object{isCtrl: true, branch: t.unit})
			c.Args[0], err = -1-s, cmp.Or(err, e)
			for i, tgt := range targets {
				c.Targets[i] = terms[tgt].at
			}
			for i := range c.Cases {
				c.Cases[i] = st.ctrlValue(t.unit, i)
			}
			ptrs[n] = c
			n++
		}
		nb.Instrs, instrs, ptrs = ptrs[:n:n], instrs[n:], ptrs[n:]
	}

	// Rank the marked registers in the analysis's order, then rename the
	// copies: a marked register to its rank, slot s to the register after
	// the last rank plus s.
	rank := scratch(&ws.regRank, src.NumRegs)
	regOf := ws.regOf[:0]
	for w, x := range set {
		for ; x != 0; x &= x - 1 {
			r := w*64 + bits.TrailingZeros64(x)
			rank[r] = int32(len(regOf))
			regOf = append(regOf, int32(r))
		}
	}
	ws.regOf = regOf
	if ws.names == nil {
		ws.names = make(map[int]string)
	}
	clear(ws.names)
	nr := len(regOf)
	for i := range slab {
		c := &slab[i]
		if c.Dst != ir.NoReg {
			if c.Op == ir.OpPhi && a.regName[c.Dst] != "" {
				ws.names[int(rank[c.Dst])] = a.regName[c.Dst]
			}
			c.Dst = int(rank[c.Dst])
		}
		for j, d := range c.Dsts {
			c.Dsts[j] = int(rank[d])
		}
		for j, r := range c.Args {
			if r < 0 {
				c.Args[j] = nr - 1 - r
			} else {
				c.Args[j] = int(rank[r])
			}
		}
	}

	f := &ir.Func{
		Name:    fmt.Sprintf("%s.stage%d", src.Name, k),
		Entry:   terms[src.Entry].at,
		NumRegs: nr,
		Blocks:  fblocks,
		RegName: ws.names,
	}
	var recvRegs []int
	if recvCut != nil {
		recvRegs = make([]int, recvCut.numSlots)
		for i := range recvRegs {
			recvRegs[i] = f.NewReg()
		}
	}
	return f, recvRegs, err
}

// renumberRegs makes f's registers dense: it renames them in order of first
// mention (block by block; in an instruction, what it defines before what it
// reads) and sets NumRegs to their count. A stage is then a self-contained
// program with a register file of its own, not a window onto the original
// function's: everything that sizes a frame by NumRegs — the interpreter's
// per-iteration clear, exec's lowering tables — pays for the registers the
// stage touches. f.RegName is then built once, under the new numbers: a
// register of the shell keeps its name in orig (indexed by the analyzed
// register ws.regOf maps it to), a register realization added the one
// f.RegName gives it on entry.
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
		if int(r) < len(ws.regOf) {
			return orig[ws.regOf[r]]
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
func (st *partitionState) insertSlotWrites(f *ir.Func, k int, terms []stageTerm, cut *cutInfo, sendRegs, recvRegs []int) error {
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
				if t := terms[tgt]; t.kind != termStub {
					c := &ir.Instr{Op: ir.OpConst, Dst: dst, Imm: st.ctrlValue(o.branch, i), Tx: true}
					insertAfterPhis(f.Blocks[t.at], c)
				}
			}
			continue
		}
		if !o.isCtrl && st.stageOf[an.DataDef[o.reg]] == k {
			r, ok := st.stageReg(o.reg)
			if ok && dst == r {
				continue
			}
			// Copy right after the defining instruction in the clone.
			d := st.a.ps.defAt[o.reg].block
			if !ok || d < 0 || terms[d].kind == termStub {
				return fmt.Errorf("stage %d: register r%d, defined at b%d in the original, is missing from the stage clone", k, o.reg, d)
			}
			if err := insertCopyAfterDef(f.Blocks[terms[d].at], r, dst); err != nil {
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
			if r, ok := st.stageReg(o.reg); ok {
				src = r
			}
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
	s, err := st.inSlot(k, o)
	if err != nil {
		return 0, err
	}
	return recvRegs[s], nil
}

// inSlot returns the slot of stage k's incoming cut that holds upstream
// object o.
func (st *partitionState) inSlot(k int, o object) (int, error) {
	if k == 1 {
		return 0, fmt.Errorf("stage %d: object %+v has no incoming cut", k, o)
	}
	cut := st.cuts[k-2]
	s, ok := cut.slotOf(o)
	if !ok {
		return 0, fmt.Errorf("stage %d: object %+v missing from cut %d live set", k, o, cut.index)
	}
	return s, nil
}

// stageReg returns the stage's register for analyzed register r, which
// stageShell numbered, ok false when the stage names no r.
func (st *partitionState) stageReg(r int) (int, bool) {
	if st.ws.regSet[r/64]>>(r%64)&1 == 0 {
		return 0, false
	}
	return int(st.ws.regRank[r]), true
}

// insertCopyAfterDef finds the instruction defining register r in blk — the
// stage's copy of the block where the analysis saw r defined — and inserts
// `dst = copy r` right after it (after the phi cluster when the definition
// is a phi).
func insertCopyAfterDef(blk *ir.Block, r, dst int) error {
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
	return fmt.Errorf("register r%d missing from the stage clone's b%d", r, blk.ID)
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
