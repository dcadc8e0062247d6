package exec

import (
	"fmt"
	"slices"

	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/ir"
)

// This file is the analysis and rewrite half of the backend: it turns an
// ir.Func into a list of ops — surviving instructions, superinstructions
// and one terminator per emitted block — over a dense frame. exec.go turns
// each op into a closure. Nothing here is visible outside a Runner: the IR
// is read, never changed.

// Lowered summarizes what the lowering did to one program, so the gap
// between the IR the partitioner balances and the ops the host runs can be
// printed per stage.
type Lowered struct {
	IRInstrs   int // reachable instructions: what the interpreter can count as steps
	Ops        int // closures emitted: body ops plus one terminator per emitted block
	Folded     int // instructions evaluated at set-up; their values sit in the frame
	Fused      int // instructions absorbed into a neighbouring op or a merged block
	Guards     int // one-case switches the chain runs on through, a run of them one guard op
	FrameSlots int // registers in the dense frame
	Resets     int // slots zeroed at the start of every iteration
	// Serial says the stage keeps state from one iteration to the next, so
	// a batch runs its iterations one at a time, in order; Carried names
	// that state. A stage without any is lane-parallel: every op runs over
	// all the batch's iterations at once.
	Serial  bool
	Carried string
}

// opKind selects the closure shape the emitter builds for an op.
type opKind uint8

const (
	kDead opKind = iota // absorbed into a later op of the same chain

	// Body ops.
	kInstr      // the anchor instruction, emitted as it stands
	kSetImm     // dst = k
	kBinImm     // dst = a <op> k
	kPktByteImm // dst = pkt_byte(k)
	kBE16       // dst = pkt_byte(k)<<8 | pkt_byte(k2)
	kAccBE16    // dst = a + (pkt_byte(k)<<8 | pkt_byte(k2))
	kMetaGetImm // dst = Meta[k]
	kMetaSetImm // Meta[k] = a; dst = 0
	kSetByteImm // pkt_setbyte(k, a); dst = 0
	kGuard      // a lane whose a == k leaves for in.Targets[0]; consecutive guards are one op

	// Terminators: the last op of every emitted block.
	kJmp      // goto k
	kBr       // if a != 0 goto Targets[0] else Targets[1]
	kCmpBr    // if a <op> b ...
	kCmpBrImm // if a <op> k ...
	kSwitch   // match a against Cases
	kRet
	kFell // the interpreter's "fell off the end" error
)

func (k opKind) isTerm() bool { return k >= kJmp }

// lop is one lowered op. dst, a and b are IR registers (-1 when absent)
// until the emitter maps them to frame slots; a kInstr op reads its operands
// from in instead.
type lop struct {
	kind opKind
	op   ir.Op // the operator of kBinImm, kCmpBr and kCmpBrImm
	// at counts the original instructions from the top of the emitted
	// block up to and including the anchor: the exact path executes the op
	// only if the step budget reaches that far. Instructions folded away or
	// fused into the op are pure, so raising the limit "on" one of them is
	// indistinguishable from raising it on the anchor.
	at        int32
	blk       int32 // IR block of the anchor
	dst, a, b int32
	k, k2     int64
	in        *ir.Instr // the anchor instruction
}

// blockInfo is what the lowering knows about one IR block, and — for a block
// that heads an emitted one — the ops it became.
type blockInfo struct {
	termIdx int32 // first control transfer (the interpreter never executes past it), or -1
	npreds  int32 // edges in from reachable blocks; the entry counts the iteration's start
	inChain int32 // the chain that last absorbed the block
	reach   bool

	// Emitted (hi != 0): ops[lo:hi], the last of them the terminator, the
	// steps one pass through them costs the interpreter, and the block's
	// number in the emitted program (plus one; 0 until numbered).
	lo, hi int32
	cost   int32
	num    int32
}

// regInfo is what the lowering knows about one IR register. Its zero value
// is the state before analysis, so a reused lowerer only clears the slice.
type regInfo struct {
	val       int64 // the folded value when konst == isConst
	wBlk      int32 // the writer's position while writes == 1
	wIdx      int32
	slot      int32 // frame slot + 1; 0 until a surviving op references the register
	def       int32 // index + 1 in lowerer.ops of the latest op writing the register
	lastW     int32 // stamp of that write
	writes    uint8 // writers in reachable code, counted to tooMany
	reads     uint8 // read sites in reachable code, counted to tooMany
	unordered bool  // some read is not provably after the sole writer
	konst     uint8
}

// tooMany is where the writer and reader counts stop: the lowering only
// tells none, one and several apart.
const tooMany = 2

const (
	unknownConst uint8 = iota
	isConst
	notConst
)

// sole reports whether the register has one writer that every read follows:
// each read then sees that writer's value from this same iteration.
func (ri *regInfo) sole() bool { return ri.writes == 1 && !ri.unordered }

type slotVal struct {
	slot int32
	val  int64
}

// lowerer holds the scratch of one lowering and its result. It is reusable:
// NewStageRunners lowers every stage through one, so the per-register and
// per-block tables are allocated once per pipeline.
type lowerer struct {
	f *ir.Func

	blocks []blockInfo // indexed by block ID
	regs   []regInfo
	ops    []lop
	order  []int32 // emitted blocks: in lowering order, then renumbered in reverse post-order
	work   []int32
	edges  [][2]int32 // the CFG edges reachable from the entry, as analyze walks them
	dom    *graph.DomTree

	chain   int32 // id of the chain being lowered
	horizon int32 // ops before this index are out of fusion's reach
	base    int32 // stamp of the chain's first instruction, minus one
	pktW    int32 // stamp of the last op that may change the packet

	nslots int
	consts []slotVal // frame slots holding folded constants
	resets []int32   // frame slots zeroed at iteration start
	stats  Lowered

	// Effects of the surviving ops that order iterations only under a
	// condition the runner knows: pkt_rx reads the World's cursor unless
	// RxFromCtx, events go to the World's trace unless deferred.
	rx, emits bool
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// lower runs the pipeline over f: analysis, then the rewrite into ops
// (folding, fusing and merging as it walks), then frame assignment.
func (lw *lowerer) lower(f *ir.Func) {
	nb := len(f.Blocks)
	lw.f = f
	lw.blocks = grow(lw.blocks, nb)
	lw.regs = grow(lw.regs, f.NumRegs)
	lw.ops, lw.order = lw.ops[:0], lw.order[:0]
	lw.consts, lw.resets = lw.consts[:0], lw.resets[:0]
	lw.chain, lw.base, lw.pktW, lw.nslots = 0, 0, 0, 0
	lw.stats, lw.rx, lw.emits = Lowered{}, false, false

	lw.analyze()
	if need := lw.stats.IRInstrs * 2 / 3; cap(lw.ops) < need {
		lw.ops = make([]lop, 0, need) // about half the instructions fold away
	}
	lw.work = append(lw.work[:0], int32(f.Entry))
	for len(lw.work) > 0 {
		b := lw.work[len(lw.work)-1]
		lw.work = lw.work[:len(lw.work)-1]
		if lw.blocks[b].hi == 0 {
			lw.lowerChain(b)
		}
	}
	lw.number()
	lw.assignFrame()
}

// number orders the emitted blocks in reverse post-order, visiting each
// terminator's targets last to first so that a branch's first target — a
// loop body, a then-arm — is numbered before its second. The batch
// dispatcher runs the lowest-numbered block with waiting lanes, so lanes
// that split re-join at the first block their paths share, and a loop turns
// until its last lane leaves. The order only gathers lanes; any order runs
// each of them correctly.
func (lw *lowerer) number() {
	lw.order = lw.order[:0]
	var visit func(b int32)
	visit = func(b int32) {
		bi := &lw.blocks[b]
		if bi.num != 0 {
			return
		}
		bi.num = -1
		for i := bi.lo; i < bi.hi; i++ {
			// A guard's exit is visited first, so it is numbered after
			// the blocks the chain continues to.
			if op := &lw.ops[i]; op.kind == kGuard {
				visit(int32(op.in.Targets[0]))
			}
		}
		switch term := &lw.ops[bi.hi-1]; term.kind {
		case kJmp:
			visit(int32(term.k))
		case kBr, kCmpBr, kCmpBrImm, kSwitch:
			for i := len(term.in.Targets) - 1; i >= 0; i-- {
				visit(int32(term.in.Targets[i]))
			}
		}
		lw.order = append(lw.order, b)
	}
	visit(int32(lw.f.Entry))
	slices.Reverse(lw.order)
	for i, b := range lw.order {
		lw.blocks[b].num = int32(i) + 1
	}
}

// blockNum returns the number of the emitted block IR block b heads.
func (lw *lowerer) blockNum(b int) int { return int(lw.blocks[b].num) - 1 }

// liveEnd is the end of the block's straight-line region: the first control
// transfer, or the end of a block that has none.
func (lw *lowerer) liveEnd(b int32) int {
	if ti := lw.blocks[b].termIdx; ti >= 0 {
		return int(ti)
	}
	return len(lw.f.Blocks[b].Instrs)
}

// analyze lays the blocks out and, over the blocks reachable from the entry
// only, records per register its writers, its read sites and whether a sole
// writer is ordered before every read — earlier in the same block, or in a
// block that dominates the reader's. The backend runs phi-free IR, so a
// block that opens with a phi panics here, when the runner is built.
func (lw *lowerer) analyze() {
	f := lw.f
	for i, b := range f.Blocks {
		if len(b.Instrs) > 0 && b.Instrs[0].Op == ir.OpPhi {
			panic(fmt.Sprintf("exec: %s: b%d opens with a phi: exec runs phi-free IR (ssa.Destruct first)", f.Name, b.ID))
		}
		bi := &lw.blocks[i]
		bi.termIdx = -1
		for idx, in := range b.Instrs {
			if in.Op.IsTerminator() {
				bi.termIdx = int32(idx)
				break
			}
		}
	}

	lw.blocks[f.Entry].reach, lw.blocks[f.Entry].npreds = true, 1
	work, edges := append(lw.work[:0], int32(f.Entry)), lw.edges[:0]
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		ti := lw.blocks[u].termIdx
		if ti < 0 {
			continue
		}
		for _, t := range f.Blocks[u].Instrs[ti].Targets {
			edges = append(edges, [2]int32{u, int32(t)})
			tb := &lw.blocks[t]
			tb.npreds++
			if !tb.reach {
				tb.reach = true
				work = append(work, int32(t))
			}
		}
	}
	lw.work, lw.edges = work, edges
	g := graph.Build(len(f.Blocks), func(add func(u, v int)) {
		for _, e := range edges {
			add(int(e[0]), int(e[1]))
		}
	})
	lw.dom = graph.Dominators(g, f.Entry)

	for bi, b := range f.Blocks {
		if !lw.blocks[bi].reach {
			continue
		}
		end := lw.liveEnd(int32(bi)) // terminators never write registers
		for idx, in := range b.Instrs[:end] {
			lw.write(in.Dst, bi, idx)
			for _, d := range in.Dsts {
				lw.write(d, bi, idx)
			}
		}
		lw.stats.IRInstrs += end
		if lw.blocks[bi].termIdx >= 0 {
			lw.stats.IRInstrs++
		}
	}
	for bi, b := range f.Blocks {
		if !lw.blocks[bi].reach {
			continue
		}
		end := int(lw.blocks[bi].termIdx) + 1 // terminators do read (br cond, switch value)
		if end == 0 {
			end = len(b.Instrs)
		}
		for idx, in := range b.Instrs[:end] {
			for _, r := range in.Args {
				lw.read(r, bi, idx)
			}
		}
	}
}

func (lw *lowerer) write(r, blk, idx int) {
	if r < 0 {
		return
	}
	ri := &lw.regs[r]
	ri.writes = min(ri.writes+1, tooMany)
	ri.wBlk, ri.wIdx = int32(blk), int32(idx)
}

func (lw *lowerer) read(r, blk, idx int) {
	ri := &lw.regs[r]
	ri.reads = min(ri.reads+1, tooMany)
	if !ri.sole() {
		return
	}
	switch {
	case blk == int(ri.wBlk):
		ri.unordered = idx <= int(ri.wIdx)
	default:
		ri.unordered = !lw.dom.Dominates(int(ri.wBlk), blk)
	}
}

// constReg reports whether r holds one set-up-time constant at every read:
// its sole, ordered writer is a foldable instruction whose operands are
// constants in turn. The answer is computed on first demand and kept, so
// folding reaches its fixed point without an ordering of the blocks.
func (lw *lowerer) constReg(r int) bool {
	ri := &lw.regs[r]
	if ri.konst != unknownConst {
		return ri.konst == isConst
	}
	ri.konst = notConst // also the answer for a register that feeds itself
	if !ri.sole() {
		return false
	}
	if v, ok := lw.evalConst(lw.f.Blocks[ri.wBlk].Instrs[ri.wIdx]); ok {
		ri.konst, ri.val = isConst, v
		return true
	}
	return false
}

// evalConst evaluates in at set-up when it is a const, a copy, a pure
// operator or one of the pure intrinsics and every operand is a constant.
func (lw *lowerer) evalConst(in *ir.Instr) (int64, bool) {
	nargs := 0
	switch {
	case in.Op == ir.OpConst:
		return in.Imm, true
	case in.Op == ir.OpCopy, in.Op.IsUnary():
		nargs = 1
	case in.Op.IsBinary():
		nargs = 2
	case in.Op == ir.OpCall && (in.Call == "csum_fold" || in.Call == "hash_crc"):
		nargs = 1
	default:
		return 0, false
	}
	if len(in.Args) < nargs {
		return 0, false
	}
	var v [2]int64
	for i, r := range in.Args[:nargs] {
		if !lw.constReg(r) {
			return 0, false
		}
		v[i] = lw.regs[r].val
	}
	switch {
	case in.Op == ir.OpCopy:
		return v[0], true
	case in.Call == "csum_fold":
		return ir.CsumFold(v[0]), true
	case in.Call == "hash_crc":
		return ir.HashCRC(v[0]), true
	}
	return ir.Eval(in.Op, v[0], v[1]), true
}

func isCompare(op ir.Op) bool { return op >= ir.OpEq && op <= ir.OpGe }

// immOperand prepares "a <op> const" for an operator given its constant on
// the left: commutative operators swap for free and comparisons flip. The
// rest (const - a, const << a, const >> a, and div and mod whichever side
// the constant is on) read it from its frame slot like any register.
func immOperand(op ir.Op) (ir.Op, bool) {
	switch op {
	case ir.OpAdd, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpEq, ir.OpNe:
		return op, true
	case ir.OpLt:
		return ir.OpGt, true
	case ir.OpLe:
		return ir.OpGe, true
	case ir.OpGt:
		return ir.OpLt, true
	case ir.OpGe:
		return ir.OpLe, true
	}
	return op, false
}

// lowerChain lowers one emitted block: head, then every block the chain
// absorbs through an unconditional jump — a block nothing else jumps to, or
// one whose body folded away entirely (only its terminator is duplicated) —
// or through a guard. Step offsets run on through the merged jumps and
// guards, each of which still costs the step the interpreter counts for it.
func (lw *lowerer) lowerChain(head int32) {
	f := lw.f
	lw.chain++
	lo := int32(len(lw.ops))
	lw.horizon = lo
	pos := int32(0)
	for cur := head; ; {
		lw.blocks[cur].inChain = lw.chain
		b := f.Blocks[cur]
		for _, in := range b.Instrs[:lw.liveEnd(cur)] {
			pos++
			lw.instr(cur, in, pos)
		}
		op := lop{at: pos, blk: cur, dst: -1, a: -1, b: -1}
		ti := lw.blocks[cur].termIdx
		if ti < 0 {
			op.kind = kFell // raised without consuming a step
			lw.push(op)
			break
		}
		pos++
		op.at, op.in = pos, b.Instrs[ti]
		next := lw.soleSucc(op.in)
		if next >= 0 && lw.absorbs(next) {
			if lw.blocks[next].npreds != 1 {
				// next is lowered on its own too, for its other
				// predecessors: from here on this chain is a copy, and a
				// register read in it once is read in two places.
				lw.horizon = int32(len(lw.ops))
			}
			lw.stats.Fused++
			cur = next
			continue
		}
		if g := lw.guardSucc(op.in); g >= 0 {
			op.kind, op.a, op.k = kGuard, int32(op.in.Args[0]), op.in.Cases[0]
			lw.push(op)
			lw.work = append(lw.work, int32(op.in.Targets[0]))
			lw.stats.Guards++
			cur = g
			continue
		}
		lw.term(&op, next)
		break
	}
	hb := &lw.blocks[head]
	hb.lo, hb.hi, hb.cost = lo, int32(len(lw.ops)), pos
	lw.order = append(lw.order, head)
	lw.base += pos
}

// soleSucc returns the one block a jmp, or a br on a folded condition,
// continues in; -1 for every other terminator.
func (lw *lowerer) soleSucc(term *ir.Instr) int32 {
	switch {
	case term.Op == ir.OpJmp:
		return int32(term.Targets[0])
	case term.Op == ir.OpBr && lw.constReg(term.Args[0]):
		if lw.regs[term.Args[0]].val != 0 {
			return int32(term.Targets[0])
		}
		return int32(term.Targets[1])
	}
	return -1
}

// absorbs reports whether the chain may continue into next.
func (lw *lowerer) absorbs(next int32) bool {
	if lw.blocks[next].inChain == lw.chain {
		return false // a cycle of empty blocks
	}
	if lw.blocks[next].npreds == 1 {
		return true
	}
	for _, in := range lw.f.Blocks[next].Instrs[:lw.liveEnd(next)] {
		if in.Dst < 0 || !lw.constReg(in.Dst) {
			return false
		}
	}
	return true
}

// guardSucc returns the block a one-case switch continues in when the chain
// may run on through it as a guard — the default successor has no other
// predecessor — else -1. The control objects a realized stage opens with
// are tested this way (paper §3.5).
func (lw *lowerer) guardSucc(term *ir.Instr) int32 {
	if term.Op != ir.OpSwitch || len(term.Cases) != 1 || len(term.Targets) != 2 {
		return -1
	}
	if next := &lw.blocks[term.Targets[1]]; next.npreds != 1 || next.inChain == lw.chain {
		return -1
	}
	return int32(term.Targets[1])
}

// guardTail reports whether op i of the emitted block whose ops start at lo
// is a guard that continues a run: the run is one op, emitted with its
// first guard.
func (lw *lowerer) guardTail(i, lo int32) bool {
	return lw.ops[i].kind == kGuard && i > lo && lw.ops[i-1].kind == kGuard
}

// term closes the chain with cur's terminator; next is its sole successor
// when it has just one left.
func (lw *lowerer) term(op *lop, next int32) {
	in := op.in
	switch {
	case next >= 0:
		op.kind, op.k = kJmp, int64(next)
		lw.work = append(lw.work, next)
	case in.Op == ir.OpRet:
		op.kind = kRet
	default:
		op.kind, op.a = kBr, int32(in.Args[0])
		if in.Op == ir.OpSwitch {
			op.kind = kSwitch
		} else {
			lw.fuseCompare(op)
		}
		for _, t := range in.Targets {
			lw.work = append(lw.work, int32(t))
		}
	}
	lw.push(*op)
}

// fuseCompare turns "c = a <cmp> b; ...; br c" into one compare-and-branch
// when the br is c's only reader and neither operand is redefined in
// between.
func (lw *lowerer) fuseCompare(br *lop) {
	p := lw.temp(br.a)
	if p == nil {
		return
	}
	stamp := lw.base + p.at
	switch {
	case p.kind == kBinImm && isCompare(p.op) && lw.regs[p.a].lastW < stamp:
		br.kind, br.op, br.a, br.k = kCmpBrImm, p.op, p.a, p.k
	case p.kind == kInstr && isCompare(p.in.Op) &&
		lw.regs[p.in.Args[0]].lastW < stamp && lw.regs[p.in.Args[1]].lastW < stamp:
		br.kind, br.op, br.a, br.b = kCmpBr, p.in.Op, int32(p.in.Args[0]), int32(p.in.Args[1])
	default:
		return
	}
	lw.absorb(p)
}

// temp returns the op of this chain that defines r when r is a single-use
// temporary — one writer, one reader, which is whoever asks — else nil.
func (lw *lowerer) temp(r int32) *lop {
	ri := &lw.regs[r]
	if ri.writes != 1 || ri.reads != 1 || ri.def <= lw.horizon {
		return nil
	}
	return &lw.ops[ri.def-1]
}

// pktTemp is temp for a producer of the given kind that reads the packet:
// it must also have seen the packet as it is now.
func (lw *lowerer) pktTemp(r int32, kind opKind) *lop {
	if p := lw.temp(r); p != nil && p.kind == kind && lw.pktW < lw.base+p.at {
		return p
	}
	return nil
}

func (lw *lowerer) absorb(p *lop) {
	p.kind = kDead
	lw.stats.Fused++
}

// push appends op and records what it writes.
func (lw *lowerer) push(op lop) {
	lw.ops = append(lw.ops, op)
	if op.kind.isTerm() {
		return
	}
	idx, stamp := int32(len(lw.ops)), lw.base+op.at
	wrote := func(r int) {
		if r >= 0 {
			lw.regs[r].def, lw.regs[r].lastW = idx, stamp
		}
	}
	wrote(op.in.Dst)
	for _, d := range op.in.Dsts {
		wrote(d)
	}
	if costmodel.UseOf(op.in).PktW {
		lw.pktW = stamp
	}
}

// instr lowers one straight-line instruction at step offset at: dropped if
// its value folded into the frame, else pushed in the cheapest form that
// applies.
func (lw *lowerer) instr(blk int32, in *ir.Instr, at int32) {
	if in.Dst >= 0 && lw.constReg(in.Dst) {
		lw.stats.Folded++
		return
	}
	op := lop{kind: kInstr, at: at, blk: blk, dst: int32(in.Dst), a: -1, b: -1, in: in}
	switch v, ok := lw.evalConst(in); {
	case ok && in.Dst >= 0:
		// Constant operands, but a destination other writers share (a
		// merge register, a control predicate): store the value.
		op.kind, op.k = kSetImm, v
	case in.Op.IsBinary() && in.Dst >= 0 && len(in.Args) >= 2:
		lw.binary(&op)
	case in.Op == ir.OpCall:
		lw.call(&op)
	}
	lw.push(op)
}

// binary picks the operand-immediate form of a binary operator, and
// recognises the big-endian 16-bit load and load-and-accumulate.
func (lw *lowerer) binary(op *lop) {
	in := op.in
	a, b, o := int32(in.Args[0]), int32(in.Args[1]), in.Op
	if lw.constReg(int(a)) {
		if flipped, ok := immOperand(o); ok {
			a, b, o = b, a, flipped
		}
	}
	if lw.constReg(int(b)) && o != ir.OpDiv && o != ir.OpMod {
		op.kind, op.op, op.a, op.k = kBinImm, o, a, lw.regs[b].val
		return
	}
	switch o {
	case ir.OpOr:
		if !lw.be16(op, a, b) {
			lw.be16(op, b, a)
		}
	case ir.OpAdd:
		if !lw.accBE16(op, a, b) {
			lw.accBE16(op, b, a)
		}
	}
}

// be16 matches or(shl(pkt_byte #k, 8), pkt_byte #k2) over single-use
// temporaries with no packet write since the loads.
func (lw *lowerer) be16(op *lop, hi, lo int32) bool {
	sh := lw.temp(hi)
	if sh == nil || sh.kind != kBinImm || sh.op != ir.OpShl || sh.k != 8 {
		return false
	}
	ph, pl := lw.pktTemp(sh.a, kPktByteImm), lw.pktTemp(lo, kPktByteImm)
	if ph == nil || pl == nil {
		return false
	}
	op.kind, op.k, op.k2 = kBE16, ph.k, pl.k
	lw.absorb(sh)
	lw.absorb(ph)
	lw.absorb(pl)
	return true
}

// accBE16 matches add(acc, be16) where the load is a single-use temporary.
func (lw *lowerer) accBE16(op *lop, acc, ld int32) bool {
	p := lw.pktTemp(ld, kBE16)
	if p == nil {
		return false
	}
	op.kind, op.a, op.k, op.k2 = kAccBE16, acc, p.k, p.k2
	lw.absorb(p)
	return true
}

// call picks the constant-index forms of the packet and metadata
// intrinsics.
func (lw *lowerer) call(op *lop) {
	in := op.in
	if len(in.Args) == 0 || !lw.constReg(in.Args[0]) {
		return
	}
	k := lw.regs[in.Args[0]].val
	switch {
	case in.Call == "pkt_byte" && in.Dst >= 0:
		op.kind, op.k = kPktByteImm, k
	case in.Call == "meta_get" && in.Dst >= 0:
		op.kind, op.k = kMetaGetImm, int64(ir.Wrap(k, metaWords))
	case in.Call == "meta_set" && len(in.Args) >= 2:
		op.kind, op.a, op.k = kMetaSetImm, int32(in.Args[1]), int64(ir.Wrap(k, metaWords))
	case in.Call == "pkt_setbyte" && len(in.Args) >= 2:
		op.kind, op.a, op.k = kSetByteImm, int32(in.Args[1]), k
	}
}

// assignFrame numbers the registers the surviving ops still reference, in
// the order the emitted code first touches them, and sorts each into the
// frame's three kinds: a constant (written once, here), a register written
// before it is read on every path (never initialised), and the rest — merge
// registers and live-set slots a path may skip — which the interpreter's
// zeroed frame makes read as 0 and are therefore reset every iteration.
func (lw *lowerer) assignFrame() {
	for _, id := range lw.order {
		b := lw.blocks[id]
		for i := b.lo; i < b.hi; i++ {
			op := &lw.ops[i]
			if op.kind == kDead {
				continue
			}
			if !lw.guardTail(i, b.lo) {
				lw.stats.Ops++
			}
			lw.effects(op)
			lw.ref(int(op.dst))
			lw.ref(int(op.a))
			lw.ref(int(op.b))
			if op.kind == kInstr {
				for _, r := range op.in.Args {
					lw.ref(r)
				}
				for _, r := range op.in.Dsts {
					lw.ref(r)
				}
			}
		}
	}
	lw.stats.FrameSlots, lw.stats.Resets = lw.nslots, len(lw.resets)
	if lw.stats.Serial {
		lw.stats.Carried = lw.carried()
	}
}

// effects records what a surviving op does that orders iterations: a stage
// is serial when some op carries state (costmodel.Use.Carries).
func (lw *lowerer) effects(op *lop) {
	if op.in == nil {
		return
	}
	u := costmodel.UseOf(op.in)
	lw.stats.Serial = lw.stats.Serial || u.Carries() != ""
	lw.rx, lw.emits = lw.rx || u.Rx, lw.emits || u.Tx
}

// carried names a serial stage's state after the first instruction that
// keeps it, in the IR's reverse post-order (a terminator's targets visited
// last to first, as number visits them), so the name does not depend on
// how the lowering chained and emitted the blocks. Every instruction up to
// the terminator of a lowered block survives in some form, and the ones
// that do not survive as themselves are pure.
func (lw *lowerer) carried() string {
	f := lw.f
	seen := make([]bool, len(f.Blocks))
	var post []int
	var visit func(b int)
	visit = func(b int) {
		seen[b] = true
		if ti := lw.blocks[b].termIdx; ti >= 0 {
			ts := f.Blocks[b].Instrs[ti].Targets
			for i := len(ts) - 1; i >= 0; i-- {
				if !seen[ts[i]] {
					visit(ts[i])
				}
			}
		}
		post = append(post, b)
	}
	visit(f.Entry)
	for i := len(post) - 1; i >= 0; i-- {
		b := post[i]
		if lw.blocks[b].inChain == 0 {
			continue
		}
		for _, in := range f.Blocks[b].Instrs[:lw.liveEnd(int32(b))] {
			if name := costmodel.UseOf(in).Carries(); name != "" {
				return name
			}
		}
	}
	return ""
}

func (lw *lowerer) ref(r int) {
	if r < 0 || lw.regs[r].slot != 0 {
		return
	}
	ri := &lw.regs[r]
	slot := int32(lw.nslots)
	lw.nslots++
	ri.slot = slot + 1
	switch {
	case lw.constReg(r):
		lw.consts = append(lw.consts, slotVal{slot, ri.val})
	case ri.writes > 0 && ri.reads > 0 && !ri.sole():
		lw.resets = append(lw.resets, slot)
	}
}

// slot returns r's frame slot; every register an emitted op names has one.
func (lw *lowerer) slot(r int) int { return int(lw.regs[r].slot) - 1 }
