// Package exec is the compiled stage-execution backend: it lowers an
// ir.Program once into a flat, slot-indexed closure program and then runs
// iterations by dispatching through that program directly. Where the
// interpreter in internal/interp walks the IR tree — a switch on in.Op per
// step, a string switch per intrinsic call, and an array-storage lookup per
// load/store — the compiled form pre-resolves everything resolvable at
// compile time:
//
//   - basic-block labels become block indices (the closure for a terminator
//     returns the next block, with the per-edge phi moves folded in, so a
//     taken branch costs exactly one dispatch);
//   - registers and phi slots become offsets into one dense frame, captured
//     by the closures as a slice, so no per-step indirection remains;
//   - persistent arrays are bound to their preallocated []int64 storage at
//     compile time, and local arrays to dense per-iteration bind slots;
//   - every pure op, terminator shape, and intrinsic is specialized into its
//     own closure; the straight-line body of a basic block executes as one
//     contiguous closure sweep per dispatch, with the step budget charged
//     per block rather than per instruction;
//   - before any closure is built, lower.go analyses and rewrites the
//     program: constants fold to a fixed point into the frame, the frame
//     shrinks to the registers still referenced (no per-iteration copy, only
//     a short reset list), neighbouring instructions fuse into
//     superinstructions, and straight-line chains of blocks merge.
//
// The backend preserves the interpreter's semantics exactly — the MaxSteps
// bound (each block is charged its original instruction count, and within
// one block of the budget the same ops run against their recorded step
// offsets, so the limit fires on the interpreter's instruction), wrapIndex
// array wrapping, total arithmetic, RxFromCtx stream discipline, event
// ordering, and the send/recv live-set layout — and the interpreter is
// retained as the behavioural oracle: the differential tests in this package
// and the cross-backend fuzz harness in internal/runtime hold the two
// byte-identical on the same inputs.
package exec

import (
	"fmt"

	"repro/internal/errs"
	"repro/internal/interp"
	"repro/internal/ir"
)

// Control-flow sentinels a compiled terminator may return instead of a next
// block index. Body closures return pcErr on failure and any non-negative
// value otherwise (the dispatch loop only inspects them for pcErr).
const (
	pcRet = -1 // OpRet: the iteration completed normally
	pcErr = -2 // a runtime error was parked in Runner.err
)

// metaWords is the size of the packet descriptor meta_get/meta_set index.
const metaWords = len(interp.IterCtx{}.Meta)

// instrFn is one compiled op: it performs its effect and returns the next
// block index / sentinel (terminators) or pcErr / don't-care (body ops).
type instrFn func(m *Runner) int

// block is one emitted basic block — an IR block, or a chain of them merged
// through unconditional jumps. The fast path and the MaxSteps boundary path
// run the same ops.
type block struct {
	// body is the straight-line sweep: every op lower.go kept.
	body []instrFn
	// at[i] is the number of original instructions from the top of the
	// block up to and including the one body[i] stands for. Once the step
	// budget comes within one block of MaxSteps, body[i] runs only if the
	// budget reaches that far.
	at []int32
	// term transfers control: it performs the taken edge's phi moves and
	// returns the successor block (or pcRet / pcErr). For a block with no
	// terminator it is the interpreter's "fell off the end" error.
	term instrFn
	// cost is the steps the interpreter counts for one pass through the
	// block: every original instruction, dropped or fused ones included,
	// plus the terminator (the synthetic fell-off-the-end error is raised
	// without consuming a step, and adds none).
	cost int
}

// Runner executes iterations of one compiled program (or one pipeline
// stage), holding its persistent array state between iterations. It mirrors
// interp.Runner's API so the streaming runtime can drive either backend
// through the same calls; like interp.Runner, it executes one iteration at
// a time and is confined to a single goroutine.
type Runner struct {
	Prog  *ir.Program
	World *interp.World

	// RxFromCtx restricts pkt_rx to the iteration context's pre-pulled
	// packet, exactly as on interp.Runner: the streaming runtime sets it
	// on every stage runner so concurrent stages never race on the
	// World's packet cursor. It is read at execution time, so it may be
	// set after construction (the compiled pkt_rx closure consults it).
	RxFromCtx bool

	persistent *interp.Store

	blocks    []block
	entry     int  // entry block index
	entryEdge edge // phi moves of the virtual predecessor -1 edge
	name      string
	lowered   Lowered

	// regs is the dense iteration frame: one slot per register the lowered
	// program still references. It is allocated once at compile time, its
	// constant slots filled in then, and captured directly by the compiled
	// closures, so register access is a single pointer dereference. Nothing
	// copies it between iterations: resets lists the few slots that must
	// read as zero when an iteration starts.
	regs   []int64
	resets []int32
	phiBuf []int64

	// localArrs lists the distinct local arrays the program touches;
	// localBind holds their per-iteration storage, re-resolved from the
	// IterCtx at the top of every RunIteration (local state flows with
	// the iteration token, not with the stage).
	localArrs []*ir.Array
	localBind [][]int64

	// Per-iteration state the closures reach through the runner.
	ctx  *interp.IterCtx
	recv []int64
	sent []int64
	err  error

	// sendDst, when non-nil, is a caller-owned buffer OpSendLS writes the
	// outgoing live set into instead of allocating (set per call by
	// RunIterationInto). It is only reused when its capacity covers the
	// live set; an iteration that executes no OpSendLS leaves it untouched.
	sendDst []int64
}

// NewRunner compiles prog against freshly initialized persistent state.
func NewRunner(prog *ir.Program, world *interp.World) *Runner {
	return NewRunnerShared(prog, world, interp.NewStore(prog))
}

// NewRunnerShared compiles prog against an existing persistent store. The
// store must be supplied up front because compilation binds persistent
// arrays to their storage slices at closure-build time — a store swapped in
// afterwards would be silently ignored. The sharded serve runtime uses this
// to compile each pipeline replica against either the shared store or a
// flow-partitioned fork.
func NewRunnerShared(prog *ir.Program, world *interp.World, store *interp.Store) *Runner {
	r := &Runner{Prog: prog, World: world, persistent: store}
	r.compile(new(lowerer))
	return r
}

// NewStageRunners compiles one Runner per pipeline stage, all bound to one
// fully pre-populated persistent store (the same sharing discipline as
// interp.NewStageRunners: every persistent array is materialized before any
// stage goroutine starts, and each array's storage is touched by exactly
// one stage per the partitioning invariant, so no locking is needed).
func NewStageRunners(stages []*ir.Program, world *interp.World) []*Runner {
	shared := interp.NewStore(stages...)
	runners := make([]*Runner, len(stages))
	lw := new(lowerer) // one set of analysis tables for the whole pipeline
	for i, s := range stages {
		runners[i] = &Runner{Prog: s, World: world, persistent: shared}
		runners[i].compile(lw)
	}
	return runners
}

// PersistentStore returns the runner's persistent-array store.
func (m *Runner) PersistentStore() *interp.Store { return m.persistent }

// Lowered reports what the lowering did to the runner's program.
func (m *Runner) Lowered() Lowered { return m.lowered }

// RunIteration executes one PPS-loop iteration of the compiled program in
// the given per-iteration context. recv supplies the live-set slot values
// consumed by OpRecvLS (nil for a first stage / sequential program); the
// values sent by OpSendLS are returned. The semantics — including error
// cases and the MaxSteps bound — match interp.Runner.RunIteration exactly.
func (m *Runner) RunIteration(ctx *interp.IterCtx, recv []int64) ([]int64, error) {
	return m.RunIterationInto(ctx, recv, nil)
}

// RunIterationInto is RunIteration with a caller-owned destination buffer
// for the outgoing live set: when dst has capacity for the slots OpSendLS
// emits, the returned slice aliases dst and the handoff allocates nothing.
// A nil (or too-small) dst falls back to allocating, and an iteration that
// sends nothing still returns nil. The streaming runtime threads each
// token's spare buffer through here so a steady-state handoff is a few
// word copies into memory the token already owns.
func (m *Runner) RunIterationInto(ctx *interp.IterCtx, recv, dst []int64) ([]int64, error) {
	bi := m.begin(ctx, recv, dst)
	blocks := m.blocks
	steps := 0
loop:
	for bi >= 0 {
		b := &blocks[bi]
		if steps+b.cost > interp.MaxSteps {
			// Within one block of the budget: fall back to exact
			// per-instruction accounting so the limit fires on
			// precisely the same step as the interpreter.
			bi = m.runExact(bi, steps)
			break loop
		}
		steps += b.cost
		for _, fn := range b.body {
			if fn(m) == pcErr {
				bi = pcErr
				break loop
			}
		}
		bi = b.term(m)
	}
	return m.end(bi)
}

// begin binds the iteration's state, brings the frame to its
// iteration-start image and takes the virtual predecessor's edge into the
// entry block; it returns the first block to dispatch.
func (m *Runner) begin(ctx *interp.IterCtx, recv, dst []int64) int {
	m.ctx, m.recv, m.sent, m.err, m.sendDst = ctx, recv, nil, nil, dst
	regs := m.regs
	for _, s := range m.resets {
		regs[s] = 0
	}
	for i, a := range m.localArrs {
		m.localBind[i] = ctx.Local(a.ID, a.Size)
	}
	if e := &m.entryEdge; !e.trivial() {
		return m.take(e)
	}
	return m.entry
}

// end unbinds the iteration's state and shapes the result from the
// sentinel the dispatch loop stopped on.
func (m *Runner) end(bi int) ([]int64, error) {
	sent, err := m.sent, m.err
	m.ctx, m.recv, m.sent, m.err, m.sendDst = nil, nil, nil, nil, nil
	if bi == pcErr {
		return nil, err
	}
	return sent, nil
}

// runExact continues an iteration with per-instruction step accounting (the
// interpreter increments and checks before executing each instruction). It
// runs only when an iteration comes within one block of MaxSteps, so its
// cost is irrelevant; what matters is that its counting is byte-exact. An
// op runs only if the budget covers its anchor instruction; the ones that
// were folded or fused away before the anchor are pure, so whether the
// limit lands on one of them or on the anchor cannot be told apart.
func (m *Runner) runExact(bi, steps int) int {
	blocks := m.blocks
	for bi >= 0 {
		b := &blocks[bi]
		for i, fn := range b.body {
			if steps+int(b.at[i]) > interp.MaxSteps {
				return m.stepLimit()
			}
			if fn(m) == pcErr {
				return pcErr
			}
		}
		if steps+b.cost > interp.MaxSteps {
			return m.stepLimit()
		}
		steps += b.cost
		bi = b.term(m)
	}
	return bi
}

func (m *Runner) stepLimit() int {
	m.err = fmt.Errorf("%s: step limit exceeded (non-terminating inner loop?)", m.name)
	return pcErr
}

// RunSequential executes iters iterations of prog against world on the
// compiled backend and returns the observable trace. It is the compiled
// counterpart of interp.RunSequential.
func RunSequential(prog *ir.Program, world *interp.World, iters int) ([]interp.Event, error) {
	if prog == nil {
		return nil, errs.ErrNilProgram
	}
	if world == nil {
		return nil, errs.ErrNilWorld
	}
	r := NewRunner(prog, world)
	ctx := interp.NewIterCtx()
	for i := 0; i < iters; i++ {
		if _, err := r.RunIteration(ctx, nil); err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		ctx.Reset()
	}
	return world.Trace, nil
}

// RunPipeline executes iters iterations through the given pipeline stages
// on the compiled backend, run to completion per iteration (the same
// trace-order-preserving discipline as interp.RunPipeline).
func RunPipeline(stages []*ir.Program, world *interp.World, iters int) ([]interp.Event, error) {
	if len(stages) == 0 {
		return nil, errs.ErrNoStages
	}
	for i, s := range stages {
		if s == nil {
			return nil, fmt.Errorf("stage %d: %w", i, errs.ErrNilStage)
		}
	}
	if world == nil {
		return nil, errs.ErrNilWorld
	}
	runners := NewStageRunners(stages, world)
	ctx := interp.NewIterCtx()
	for i := 0; i < iters; i++ {
		var slots []int64
		for k, r := range runners {
			out, err := r.RunIteration(ctx, slots)
			if err != nil {
				return nil, fmt.Errorf("iteration %d, stage %d: %w", i, k, err)
			}
			slots = out
		}
		ctx.Reset()
	}
	return world.Trace, nil
}

// emitEv routes an observable event the way the interpreter does: into the
// iteration's deferred buffer when the context asks for it, else straight
// onto the shared World trace.
func (m *Runner) emitEv(e interp.Event) {
	if m.ctx.DeferEvents {
		m.ctx.Events = append(m.ctx.Events, e)
		return
	}
	m.World.EmitEvent(e)
}

// edge is one resolved CFG edge: the parallel phi moves the edge performs
// and the block index it lands on. A nil-err edge with no moves is
// "trivial" and folds to a bare constant in the terminator closure.
type edge struct {
	srcs []int // phi source registers, read first (parallel semantics)
	dsts []int // phi destination registers
	err  error // set when a phi lacks a value for this predecessor
	to   int   // target block index
}

func (e *edge) trivial() bool { return e.err == nil && len(e.srcs) == 0 }

// take performs the edge's phi moves (reads before writes, via the shared
// scratch buffer) and returns the target block index.
func (m *Runner) take(e *edge) int {
	if e.err != nil {
		m.err = e.err
		return pcErr
	}
	regs, buf := m.regs, m.phiBuf
	for i, s := range e.srcs {
		buf[i] = regs[s]
	}
	for i, d := range e.dsts {
		regs[d] = buf[i]
	}
	return e.to
}

// compile lowers the program (lower.go), lays out the frame, and emits one
// closure per surviving op with every register, array and branch target
// resolved.
func (m *Runner) compile(lw *lowerer) {
	f := m.Prog.Func
	m.name = f.Name
	lw.lower(f)
	m.lowered = lw.stats

	m.regs = make([]int64, lw.nslots)
	for _, c := range lw.consts {
		m.regs[c.slot] = c.val
	}
	m.resets = append([]int32(nil), lw.resets...)
	m.phiBuf = make([]int64, lw.maxPhi)

	// Every block's body and step offsets are slices of two arrays.
	m.blocks = make([]block, len(f.Blocks))
	nbody := lw.stats.Ops - len(lw.order)
	fns := make([]instrFn, 0, nbody)
	ats := make([]int32, 0, nbody)
	for _, id := range lw.order {
		lb, bl := lw.blocks[id], &m.blocks[id]
		first := len(fns)
		for i := lb.lo; i < lb.hi; i++ {
			switch op := &lw.ops[i]; {
			case op.kind == kDead:
			case op.kind.isTerm():
				bl.term = m.emitTerm(lw, op)
			default:
				fns = append(fns, m.emitOp(lw, op))
				ats = append(ats, op.at)
			}
		}
		bl.body, bl.at = fns[first:len(fns):len(fns)], ats[first:len(ats):len(ats)]
		bl.cost = int(lb.cost)
	}

	m.entry = f.Entry
	// The virtual predecessor -1 edge: trivially the entry block, or —
	// when the entry block opens with phis — the moves (or the
	// interpreter's no-value-for-predecessor error) run by RunIteration
	// before dispatch starts.
	m.entryEdge = m.planEdge(lw, -1, f.Entry)
	m.localBind = make([][]int64, len(m.localArrs))
}

// reg returns the frame slot of IR register r.
func (m *Runner) reg(lw *lowerer, r int) *int64 { return &m.regs[lw.slot(r)] }

// optReg is reg for a destination that may be absent (a call with no
// result): nil mirrors the interpreter's in.Dst != ir.NoReg check.
func (m *Runner) optReg(lw *lowerer, r int) *int64 {
	if r < 0 {
		return nil
	}
	return m.reg(lw, r)
}

// planEdge resolves the phi moves of the pred -> succ edge.
func (m *Runner) planEdge(lw *lowerer, pred, succ int) edge {
	e := edge{to: succ}
	f := m.Prog.Func
	for _, phi := range f.Blocks[succ].Instrs[:lw.blocks[succ].nPhis] {
		j := phiArg(phi, pred)
		if j < 0 {
			return edge{
				err: fmt.Errorf("%s: b%d: phi has no value for predecessor b%d", f.Name, succ, pred),
				to:  pcErr,
			}
		}
		e.srcs = append(e.srcs, lw.slot(phi.Args[j]))
		e.dsts = append(e.dsts, lw.slot(phi.Dst))
	}
	return e
}

// bindLocal returns the per-iteration bind slot for a local array,
// allocating one on first reference.
func (m *Runner) bindLocal(a *ir.Array) int {
	for slot, have := range m.localArrs {
		if have == a {
			return slot
		}
	}
	m.localArrs = append(m.localArrs, a)
	return len(m.localArrs) - 1
}

// wrapIndex mirrors the interpreter's array-index wrapping: out-of-range
// indices wrap modulo the array size, with negative indices brought into
// range.
func wrapIndex(i int64, size int) int {
	v := i % int64(size)
	if v < 0 {
		v += int64(size)
	}
	return int(v)
}

// b2i converts a comparison result to the IR's 0/1 encoding.
func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// divTotal and modTotal are the interpreter's total division: a zero
// divisor yields 0, and the single overflowing case MinInt64 / -1 is
// answered without trapping.
func divTotal(a, b int64) int64 {
	switch {
	case b == 0:
		return 0
	case a == -a && b == -1:
		return a
	}
	return a / b
}

func modTotal(a, b int64) int64 {
	if b == 0 || (a == -a && b == -1) {
		return 0
	}
	return a % b
}

func csumFold(x int64) int64 {
	v := uint64(x) & 0xFFFFFFFF
	v = (v & 0xFFFF) + (v >> 16)
	v = (v & 0xFFFF) + (v >> 16)
	return int64(v)
}

// hashCRC is a small deterministic integer mix (xorshift-multiply).
func hashCRC(x int64) int64 {
	v := uint64(x)
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	return int64(v & 0x7FFFFFFF)
}

// byteAt is pkt_byte: an offset outside the packet reads 0.
func byteAt(pkt []byte, off int64) int64 {
	if uint64(off) < uint64(len(pkt)) {
		return int64(pkt[off])
	}
	return 0
}

// emitTerm emits the control-transfer closure that ends a block, with the
// phi moves of each outgoing edge folded in.
func (m *Runner) emitTerm(lw *lowerer, op *lop) instrFn {
	blk := int(op.blk)
	switch op.kind {
	case kJmp:
		e := m.planEdge(lw, blk, int(op.k))
		if e.trivial() {
			to := e.to
			return func(m *Runner) int { return to }
		}
		return func(m *Runner) int { return m.take(&e) }
	case kBr:
		pc := m.reg(lw, int(op.a))
		et := m.planEdge(lw, blk, op.in.Targets[0])
		ee := m.planEdge(lw, blk, op.in.Targets[1])
		if et.trivial() && ee.trivial() {
			tb, eb := et.to, ee.to
			return func(m *Runner) int {
				if *pc != 0 {
					return tb
				}
				return eb
			}
		}
		return func(m *Runner) int {
			if *pc != 0 {
				return m.take(&et)
			}
			return m.take(&ee)
		}
	case kCmpBr:
		return cmpBr(op.op, m.reg(lw, int(op.a)), m.reg(lw, int(op.b)), op.in.Targets[0], op.in.Targets[1])
	case kCmpBrImm:
		return cmpBrImm(op.op, m.reg(lw, int(op.a)), op.k, op.in.Targets[0], op.in.Targets[1])
	case kSwitch:
		return m.emitSwitch(lw, op)
	case kRet:
		return func(m *Runner) int { return pcRet }
	case kFell:
		err := fmt.Errorf("%s: b%d fell off the end without a terminator", m.name, blk)
		return func(m *Runner) int { m.err = err; return pcErr }
	}
	panic("exec: emitTerm on a body op") // unreachable: compile routes by isTerm
}

// emitSwitch emits a switch: a jump table when the cases are dense and no
// edge carries phi moves, else the interpreter's first-match linear scan.
func (m *Runner) emitSwitch(lw *lowerer, op *lop) instrFn {
	in := op.in
	pv := m.reg(lw, int(op.a))
	edges := make([]edge, len(in.Targets))
	trivial := true
	for i, t := range in.Targets {
		edges[i] = m.planEdge(lw, int(op.blk), t)
		trivial = trivial && edges[i].trivial()
	}
	def := len(edges) - 1
	if len(in.Cases) > 0 && trivial {
		lo, hi := in.Cases[0], in.Cases[0]
		for _, cv := range in.Cases {
			lo, hi = min(lo, cv), max(hi, cv)
		}
		// Differences are taken in uint64, where they are exact for any
		// pair of int64 values.
		if span := uint64(hi) - uint64(lo); span == 0 {
			// One case (the control-predicate test a realized stage opens
			// with): a compare.
			return cmpBrImm(ir.OpEq, pv, lo, edges[0].to, edges[def].to)
		} else if span < uint64(4*len(in.Cases)) {
			table := make([]int, span+1)
			for i := range table {
				table[i] = edges[def].to
			}
			for i := len(in.Cases) - 1; i >= 0; i-- { // the first match wins
				table[uint64(in.Cases[i])-uint64(lo)] = edges[i].to
			}
			dflt := edges[def].to
			return func(m *Runner) int {
				if d := uint64(*pv) - uint64(lo); d < uint64(len(table)) {
					return table[d]
				}
				return dflt
			}
		}
	}
	cases := append([]int64(nil), in.Cases...)
	return func(m *Runner) int {
		x := *pv
		for i, cv := range cases {
			if x == cv {
				return m.take(&edges[i])
			}
		}
		return m.take(&edges[def])
	}
}

// cmpBr is a comparison fused with the br that was its only reader.
func cmpBr(op ir.Op, pa, pb *int64, t, e int) instrFn {
	switch op {
	case ir.OpEq:
		return func(m *Runner) int {
			if *pa == *pb {
				return t
			}
			return e
		}
	case ir.OpNe:
		return func(m *Runner) int {
			if *pa != *pb {
				return t
			}
			return e
		}
	case ir.OpLt:
		return func(m *Runner) int {
			if *pa < *pb {
				return t
			}
			return e
		}
	case ir.OpLe:
		return func(m *Runner) int {
			if *pa <= *pb {
				return t
			}
			return e
		}
	case ir.OpGt:
		return func(m *Runner) int {
			if *pa > *pb {
				return t
			}
			return e
		}
	case ir.OpGe:
		return func(m *Runner) int {
			if *pa >= *pb {
				return t
			}
			return e
		}
	}
	panic("exec: cmpBr on " + op.String()) // unreachable: fuseCompare admits comparisons only
}

// cmpBrImm is cmpBr against a constant.
func cmpBrImm(op ir.Op, pa *int64, k int64, t, e int) instrFn {
	switch op {
	case ir.OpEq:
		return func(m *Runner) int {
			if *pa == k {
				return t
			}
			return e
		}
	case ir.OpNe:
		return func(m *Runner) int {
			if *pa != k {
				return t
			}
			return e
		}
	case ir.OpLt:
		return func(m *Runner) int {
			if *pa < k {
				return t
			}
			return e
		}
	case ir.OpLe:
		return func(m *Runner) int {
			if *pa <= k {
				return t
			}
			return e
		}
	case ir.OpGt:
		return func(m *Runner) int {
			if *pa > k {
				return t
			}
			return e
		}
	case ir.OpGe:
		return func(m *Runner) int {
			if *pa >= k {
				return t
			}
			return e
		}
	}
	panic("exec: cmpBrImm on " + op.String()) // unreachable: fuseCompare admits comparisons only
}

// emitOp emits the closure for one body op. Operand and destination
// registers are captured as direct *int64 pointers into the frame, so the
// closures touch memory without slice-header or bounds-check overhead; on
// success they return a don't-care non-pcErr value. Every superinstruction
// keeps the edge semantics of the instructions it stands for: packet
// offsets outside the packet read 0 byte by byte, a call without a result
// register writes none.
func (m *Runner) emitOp(lw *lowerer, op *lop) instrFn {
	if op.kind == kInstr {
		return m.emitInstr(lw, int(op.blk), op.in)
	}
	pd := m.optReg(lw, int(op.dst))
	k, k2 := op.k, op.k2
	switch op.kind {
	case kSetImm:
		return func(m *Runner) int { *pd = k; return 0 }
	case kBinImm:
		return binImm(op.op, pd, m.reg(lw, int(op.a)), k)
	case kPktByteImm:
		return func(m *Runner) int { *pd = byteAt(m.ctx.Pkt, k); return 0 }
	case kBE16:
		return func(m *Runner) int {
			pkt := m.ctx.Pkt
			*pd = byteAt(pkt, k)<<8 | byteAt(pkt, k2)
			return 0
		}
	case kAccBE16:
		pa := m.reg(lw, int(op.a))
		return func(m *Runner) int {
			pkt := m.ctx.Pkt
			*pd = *pa + (byteAt(pkt, k)<<8 | byteAt(pkt, k2))
			return 0
		}
	case kMetaGetImm:
		return func(m *Runner) int { *pd = m.ctx.Meta[k]; return 0 }
	case kMetaSetImm:
		pa := m.reg(lw, int(op.a))
		return func(m *Runner) int {
			m.ctx.Meta[k] = *pa
			if pd != nil {
				*pd = 0
			}
			return 0
		}
	case kSetByteImm:
		pa := m.reg(lw, int(op.a))
		return func(m *Runner) int {
			if pkt := m.ctx.Pkt; uint64(k) < uint64(len(pkt)) {
				pkt[k] = byte(*pa)
			}
			if pd != nil {
				*pd = 0
			}
			return 0
		}
	case kMoves:
		e := m.planEdge(lw, int(op.blk), int(k))
		return func(m *Runner) int { m.take(&e); return 0 }
	}
	panic("exec: emitOp on a terminator") // unreachable: compile routes by isTerm
}

// binImm is a binary operator with its right operand a constant.
func binImm(op ir.Op, pd, pa *int64, k int64) instrFn {
	switch op {
	case ir.OpAdd:
		return func(m *Runner) int { *pd = *pa + k; return 0 }
	case ir.OpSub:
		return func(m *Runner) int { *pd = *pa - k; return 0 }
	case ir.OpMul:
		return func(m *Runner) int { *pd = *pa * k; return 0 }
	case ir.OpAnd:
		return func(m *Runner) int { *pd = *pa & k; return 0 }
	case ir.OpOr:
		return func(m *Runner) int { *pd = *pa | k; return 0 }
	case ir.OpXor:
		return func(m *Runner) int { *pd = *pa ^ k; return 0 }
	case ir.OpShl: // k arrives masked to 0..63
		return func(m *Runner) int { *pd = *pa << uint64(k); return 0 }
	case ir.OpShr:
		return func(m *Runner) int { *pd = *pa >> uint64(k); return 0 }
	case ir.OpEq:
		return func(m *Runner) int { *pd = b2i(*pa == k); return 0 }
	case ir.OpNe:
		return func(m *Runner) int { *pd = b2i(*pa != k); return 0 }
	case ir.OpLt:
		return func(m *Runner) int { *pd = b2i(*pa < k); return 0 }
	case ir.OpLe:
		return func(m *Runner) int { *pd = b2i(*pa <= k); return 0 }
	case ir.OpGt:
		return func(m *Runner) int { *pd = b2i(*pa > k); return 0 }
	case ir.OpGe:
		return func(m *Runner) int { *pd = b2i(*pa >= k); return 0 }
	}
	panic("exec: binImm on " + op.String()) // unreachable: lowerer.binary excludes div and mod
}

// emitInstr emits the specialized closure for one straight-line (non-phi,
// non-terminator) instruction in its register-operand form.
func (m *Runner) emitInstr(lw *lowerer, blk int, in *ir.Instr) instrFn {
	switch {
	case in.Op == ir.OpCopy:
		pd, pa := m.reg(lw, in.Dst), m.reg(lw, in.Args[0])
		return func(m *Runner) int { *pd = *pa; return 0 }
	case in.Op.IsBinary():
		return binRR(in.Op, m.reg(lw, in.Dst), m.reg(lw, in.Args[0]), m.reg(lw, in.Args[1]))

	case in.Op == ir.OpNeg:
		pd, pa := m.reg(lw, in.Dst), m.reg(lw, in.Args[0])
		return func(m *Runner) int { *pd = -*pa; return 0 }
	case in.Op == ir.OpNot:
		pd, pa := m.reg(lw, in.Dst), m.reg(lw, in.Args[0])
		return func(m *Runner) int { *pd = b2i(*pa == 0); return 0 }
	case in.Op == ir.OpBNot:
		pd, pa := m.reg(lw, in.Dst), m.reg(lw, in.Args[0])
		return func(m *Runner) int { *pd = ^*pa; return 0 }

	case in.Op == ir.OpLoad:
		arr := in.Arr
		if arr == nil {
			// Defer the interpreter's nil-array dereference to execution
			// time (a hand-built program only fails if the path runs).
			return func(m *Runner) int { _ = arr.Size; return 0 }
		}
		pd, pidx, size := m.reg(lw, in.Dst), m.reg(lw, in.Args[0]), arr.Size
		if arr.Persistent {
			st := m.persistent.Get(arr)
			return func(m *Runner) int { *pd = st[wrapIndex(*pidx, size)]; return 0 }
		}
		slot := m.bindLocal(arr)
		return func(m *Runner) int { *pd = m.localBind[slot][wrapIndex(*pidx, size)]; return 0 }
	case in.Op == ir.OpStore:
		arr := in.Arr
		if arr == nil {
			return func(m *Runner) int { _ = arr.Size; return 0 }
		}
		pidx, pval, size := m.reg(lw, in.Args[0]), m.reg(lw, in.Args[1]), arr.Size
		if arr.Persistent {
			st := m.persistent.Get(arr)
			return func(m *Runner) int { st[wrapIndex(*pidx, size)] = *pval; return 0 }
		}
		slot := m.bindLocal(arr)
		return func(m *Runner) int { m.localBind[slot][wrapIndex(*pidx, size)] = *pval; return 0 }

	case in.Op == ir.OpCall:
		return m.emitCall(lw, in)

	case in.Op == ir.OpSendLS:
		ptrs := make([]*int64, len(in.Args))
		for i, a := range in.Args {
			ptrs[i] = m.reg(lw, a)
		}
		return func(m *Runner) int {
			vals := m.sendDst
			if cap(vals) >= len(ptrs) {
				vals = vals[:len(ptrs)]
			} else {
				vals = make([]int64, len(ptrs))
			}
			for i, p := range ptrs {
				vals[i] = *p
			}
			m.sent = vals
			return 0
		}
	case in.Op == ir.OpRecvLS:
		ptrs := make([]*int64, len(in.Dsts))
		for i, d := range in.Dsts {
			ptrs[i] = m.reg(lw, d)
		}
		name := m.name
		return func(m *Runner) int {
			if len(m.recv) != len(ptrs) {
				m.err = fmt.Errorf("%s: recvls expects %d slots, got %d", name, len(ptrs), len(m.recv))
				return pcErr
			}
			for i, p := range ptrs {
				*p = m.recv[i]
			}
			return 0
		}
	}

	// Everything else is what the interpreter's evalPure default would
	// reject (a non-leading phi, an invalid op): reproduce its wrapped
	// error, but only if the instruction is ever reached. (An OpConst never
	// arrives here: lower.go folds it or turns it into a store-immediate.)
	err := fmt.Errorf("%s: b%d: cannot evaluate %s", m.name, blk, in)
	return func(m *Runner) int { m.err = err; return pcErr }
}

// binRR is a binary operator over two registers.
func binRR(op ir.Op, pd, pa, pb *int64) instrFn {
	switch op {
	case ir.OpAdd:
		return func(m *Runner) int { *pd = *pa + *pb; return 0 }
	case ir.OpSub:
		return func(m *Runner) int { *pd = *pa - *pb; return 0 }
	case ir.OpMul:
		return func(m *Runner) int { *pd = *pa * *pb; return 0 }
	case ir.OpDiv:
		return func(m *Runner) int { *pd = divTotal(*pa, *pb); return 0 }
	case ir.OpMod:
		return func(m *Runner) int { *pd = modTotal(*pa, *pb); return 0 }
	case ir.OpAnd:
		return func(m *Runner) int { *pd = *pa & *pb; return 0 }
	case ir.OpOr:
		return func(m *Runner) int { *pd = *pa | *pb; return 0 }
	case ir.OpXor:
		return func(m *Runner) int { *pd = *pa ^ *pb; return 0 }
	case ir.OpShl:
		return func(m *Runner) int { *pd = *pa << (uint64(*pb) & 63); return 0 }
	case ir.OpShr:
		return func(m *Runner) int { *pd = *pa >> (uint64(*pb) & 63); return 0 }
	case ir.OpEq:
		return func(m *Runner) int { *pd = b2i(*pa == *pb); return 0 }
	case ir.OpNe:
		return func(m *Runner) int { *pd = b2i(*pa != *pb); return 0 }
	case ir.OpLt:
		return func(m *Runner) int { *pd = b2i(*pa < *pb); return 0 }
	case ir.OpLe:
		return func(m *Runner) int { *pd = b2i(*pa <= *pb); return 0 }
	case ir.OpGt:
		return func(m *Runner) int { *pd = b2i(*pa > *pb); return 0 }
	case ir.OpGe:
		return func(m *Runner) int { *pd = b2i(*pa >= *pb); return 0 }
	}
	panic("exec: binRR on " + op.String()) // unreachable: emitInstr routes by IsBinary
}

// emitCall specializes an intrinsic call: the name is resolved once here
// instead of once per execution, and each intrinsic becomes a dedicated
// closure over direct pointers to its argument and destination slots. The
// semantics of every intrinsic match interp.Runner.intrinsic exactly; a nil
// destination pointer mirrors the interpreter's in.Dst != ir.NoReg check.
func (m *Runner) emitCall(lw *lowerer, in *ir.Instr) instrFn {
	pd := m.optReg(lw, in.Dst)
	argp := func(i int) *int64 { return m.reg(lw, in.Args[i]) }

	switch in.Call {
	case "pkt_rx":
		return func(m *Runner) int {
			ctx := m.ctx
			var p []byte
			if ctx.HasPending {
				p, ctx.Pending, ctx.HasPending = ctx.Pending, nil, false
			} else if !m.RxFromCtx {
				p = m.World.RxPacket()
			}
			if p == nil {
				ctx.Pkt, ctx.HasPkt = nil, false
				if pd != nil {
					*pd = -1
				}
				return 0
			}
			buf := make([]byte, len(p))
			copy(buf, p)
			ctx.Pkt, ctx.HasPkt = buf, true
			if pd != nil {
				*pd = int64(len(buf))
			}
			return 0
		}
	case "pkt_len":
		return func(m *Runner) int {
			if pd != nil {
				*pd = int64(len(m.ctx.Pkt))
			}
			return 0
		}
	case "pkt_byte":
		p0 := argp(0)
		return func(m *Runner) int {
			if pd != nil {
				*pd = byteAt(m.ctx.Pkt, *p0)
			}
			return 0
		}
	case "pkt_word":
		p0 := argp(0)
		return func(m *Runner) int {
			off := *p0
			pkt := m.ctx.Pkt
			var v int64
			for i := int64(0); i < 4; i++ {
				v <<= 8
				if o := off + i; o >= 0 && o < int64(len(pkt)) {
					v |= int64(pkt[o])
				}
			}
			if pd != nil {
				*pd = v
			}
			return 0
		}
	case "pkt_setbyte":
		p0, p1 := argp(0), argp(1)
		return func(m *Runner) int {
			off, val := *p0, *p1
			if off >= 0 && off < int64(len(m.ctx.Pkt)) {
				m.ctx.Pkt[off] = byte(val)
			}
			if pd != nil {
				*pd = 0
			}
			return 0
		}
	case "pkt_setword":
		p0, p1 := argp(0), argp(1)
		return func(m *Runner) int {
			off, val := *p0, *p1
			pkt := m.ctx.Pkt
			for i := int64(0); i < 4; i++ {
				if o := off + i; o >= 0 && o < int64(len(pkt)) {
					pkt[o] = byte(val >> (8 * (3 - i)))
				}
			}
			if pd != nil {
				*pd = 0
			}
			return 0
		}
	case "pkt_send":
		p0 := argp(0)
		return func(m *Runner) int {
			pkt := make([]byte, len(m.ctx.Pkt))
			copy(pkt, m.ctx.Pkt)
			m.emitEv(interp.Event{Kind: interp.EvSend, Val: *p0, Pkt: pkt})
			if pd != nil {
				*pd = 0
			}
			return 0
		}
	case "pkt_drop":
		return func(m *Runner) int {
			m.emitEv(interp.Event{Kind: interp.EvDrop})
			if pd != nil {
				*pd = 0
			}
			return 0
		}
	case "meta_get":
		p0 := argp(0)
		return func(m *Runner) int {
			if pd != nil {
				*pd = m.ctx.Meta[wrapIndex(*p0, len(m.ctx.Meta))]
			}
			return 0
		}
	case "meta_set":
		p0, p1 := argp(0), argp(1)
		return func(m *Runner) int {
			m.ctx.Meta[wrapIndex(*p0, len(m.ctx.Meta))] = *p1
			if pd != nil {
				*pd = 0
			}
			return 0
		}
	case "rt_lookup":
		p0 := argp(0)
		return func(m *Runner) int {
			if m.World.RT4 == nil {
				if pd != nil {
					*pd = -1
				}
			} else {
				if pd != nil {
					*pd = m.World.RT4(*p0)
				}
			}
			return 0
		}
	case "rt6_lookup":
		p0, p1 := argp(0), argp(1)
		return func(m *Runner) int {
			if m.World.RT6 == nil {
				if pd != nil {
					*pd = -1
				}
			} else {
				if pd != nil {
					*pd = m.World.RT6(*p0, *p1)
				}
			}
			return 0
		}
	case "csum_fold":
		p0 := argp(0)
		return func(m *Runner) int {
			if pd != nil {
				*pd = csumFold(*p0)
			}
			return 0
		}
	case "hash_crc":
		p0 := argp(0)
		return func(m *Runner) int {
			if pd != nil {
				*pd = hashCRC(*p0)
			}
			return 0
		}
	case "q_put":
		p0, p1 := argp(0), argp(1)
		return func(m *Runner) int {
			q := *p0
			m.World.Queues[q] = append(m.World.Queues[q], *p1)
			if pd != nil {
				*pd = 0
			}
			return 0
		}
	case "q_get":
		p0 := argp(0)
		return func(m *Runner) int {
			q := *p0
			vs := m.World.Queues[q]
			if len(vs) == 0 {
				if pd != nil {
					*pd = -1
				}
			} else {
				m.World.Queues[q] = vs[1:]
				if pd != nil {
					*pd = vs[0]
				}
			}
			return 0
		}
	case "q_len":
		p0 := argp(0)
		return func(m *Runner) int {
			if pd != nil {
				*pd = int64(len(m.World.Queues[*p0]))
			}
			return 0
		}
	case "trace":
		p0 := argp(0)
		return func(m *Runner) int {
			m.emitEv(interp.Event{Kind: interp.EvTrace, Val: *p0})
			if pd != nil {
				*pd = 0
			}
			return 0
		}
	}

	err := fmt.Errorf("unknown intrinsic %q", in.Call)
	return func(m *Runner) int { m.err = err; return pcErr }
}
