// Package exec is the compiled stage-execution backend: it lowers an
// ir.Program once into a flat, slot-indexed closure program and then runs
// iterations a batch at a time by dispatching through that program. Where
// the interpreter in internal/interp walks the IR tree — a switch on in.Op
// per step, a string switch per intrinsic call, and an array-storage lookup
// per load/store — the compiled form pre-resolves everything resolvable at
// compile time, and pays what is left once per batch instead of once per
// packet:
//
//   - basic-block labels become block numbers (the closure for a terminator
//     returns the next block);
//   - registers become columns of one dense frame, a value per lane,
//     captured by the closures by pointer, so no per-step indirection
//     remains;
//   - persistent arrays are bound to their preallocated []int64 storage at
//     compile time, and local arrays to dense per-lane bind slots;
//   - every pure op, terminator shape, and intrinsic is specialized into its
//     own closure, and one call of it performs the op for every live
//     iteration of the batch: the straight-line body of a basic block is
//     one closure sweep per batch, with the step budget charged per block;
//   - control flow is by selection: lanes that agree on a branch move on
//     together, lanes that split wait under their blocks and re-join;
//   - before any closure is built, lower.go analyses and rewrites the
//     program: constants fold to a fixed point into the frame, the frame
//     shrinks to the registers still referenced (no per-iteration copy, only
//     a short reset list), neighbouring instructions fuse into
//     superinstructions, straight-line chains of blocks merge, and the
//     stage is marked serial if it carries state between iterations.
//
// What each op and intrinsic computes is internal/ir's (ir.Eval and its
// leaves), shared with the interpreter; the backend preserves everything
// else of the interpreter's semantics exactly — the MaxSteps bound (each
// block is charged its original instruction count, and within one block of
// the budget a lane runs the same ops alone against their recorded step
// offsets, so the limit fires on the interpreter's instruction), RxFromCtx
// stream discipline, event ordering, and the send/recv live-set layout —
// and the interpreter is retained as the behavioural oracle: the
// differential tests in this package and the cross-backend fuzz harness in
// internal/runtime hold the two byte-identical on the same inputs. It runs
// phi-free IR, the form ppc.Compile emits and realization leaves after
// ssa.Destruct.
package exec

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/interp"
	"repro/internal/ir"
)

// lanes is the width of one group: how many iterations a lane-parallel
// stage runs side by side. A frame register is one col, so the IPv4 stage's
// 61 registers take 15.6 KB — the L1 share that leaves room for 32 packets
// and their contexts; a wider batch runs as successive groups.
const (
	lanes = 32
	lm    = lanes - 1 // l&lm indexes a [lanes] array without a bounds check
)

// lane names one iteration of the group being run; col is one frame
// register across the group.
type (
	lane = uint8
	col  [lanes]int64
)

// pcNone is what a terminator returns instead of a block number when the
// selection it was given has nowhere further to go together: its lanes
// returned, failed, or were parked under the blocks they split to.
const pcNone = -1

// metaWords is the size of the packet descriptor meta_get/meta_set index.
const metaWords = len(interp.IterCtx{}.Meta)

// opFn is one compiled body op: it performs its effect for every selected
// lane. termFn ends a block: it returns the block all the selected lanes
// continue in, or pcNone.
type (
	opFn   func(m *Runner, sel []lane)
	termFn func(m *Runner, sel []lane) int
)

// block is one emitted basic block — an IR block, or a chain of them merged
// through unconditional jumps. The fast path and the MaxSteps boundary path
// run the same ops.
type block struct {
	// body is the straight-line sweep: every op lower.go kept.
	body []opFn
	// at[i] is the number of original instructions from the top of the
	// block up to and including the one body[i] stands for. Once a lane's
	// step budget comes within one block of MaxSteps, body[i] runs only if
	// the budget reaches that far.
	at []int32
	// term transfers control. For a block with no terminator it is the
	// interpreter's "fell off the end" error.
	term termFn
	// cost is the steps the interpreter counts for one pass through the
	// block: every original instruction, dropped or fused ones included,
	// plus the terminator (the synthetic fell-off-the-end error is raised
	// without consuming a step, and adds none).
	cost int
}

// Block is a batch's live set on its way from one stage to the next:
// column-major, one column per transmission slot and one row per batch
// position, so that OpSendLS and OpRecvLS move a whole group's slot as one
// column copy. A row holds a live set only when its sent bit is set, and
// every sent row has the block's width: the slot count of the OpSendLS that
// wrote it. Columns are added as a wider send needs them; the rows are fixed.
type Block struct {
	vals  []int64 // slot i of row r is vals[i*rows+r]
	rows  int
	width int
	sent  []uint32  // bit r&lm of word r/lanes: row r holds a live set
	few   [2]uint32 // sent, for up to two groups' rows
}

// NewBlocks returns the two empty blocks a batch of rows rows hands its live
// sets on in, each with room for slots slots. Up to 64 rows, the pair takes
// two allocations.
func NewBlocks(slots, rows int) (in, out *Block) {
	pair, n := new([2]Block), slots*rows
	vals := make([]int64, 2*n)
	for i := range pair {
		b := &pair[i]
		b.vals, b.rows = vals[i*n:(i+1)*n:(i+1)*n], rows
		if words := (rows + lm) / lanes; words <= len(b.few) {
			b.sent = b.few[:words]
		} else {
			b.sent = make([]uint32, words)
		}
	}
	return &pair[0], &pair[1]
}

// Reset empties every row.
func (b *Block) Reset() { clear(b.sent) }

// has reports whether row r holds a live set.
func (b *Block) has(r int) bool { return b.sent[r/lanes]>>(r&lm)&1 != 0 }

// sentBesides reports whether any row holds a live set other than those of
// mask in the group whose lane 0 is row base.
func (b *Block) sentBesides(base int, mask uint32) bool {
	for w, bits := range b.sent {
		if w == base/lanes {
			bits &^= mask
		}
		if bits != 0 {
			return true
		}
	}
	return false
}

// widen makes the block's width w, adding columns when it has too few.
func (b *Block) widen(w int) {
	if need := w * b.rows; need > len(b.vals) {
		b.vals = append(b.vals, make([]int64, need-len(b.vals))...)
	}
	b.width = w
}

// Row appends row r's live set to dst[:0]; ok is false when the row holds
// none.
func (b *Block) Row(r int, dst []int64) (vals []int64, ok bool) {
	if !b.has(r) {
		return nil, false
	}
	vals = dst[:0]
	for i := range b.width {
		vals = append(vals, b.vals[i*b.rows+r])
	}
	return vals, true
}

// SetRow makes vals row r's live set, which sets the block's width; nil
// empties the row.
func (b *Block) SetRow(r int, vals []int64) {
	if vals == nil {
		b.sent[r/lanes] &^= 1 << (r & lm)
		return
	}
	b.widen(len(vals))
	for i, v := range vals {
		b.vals[i*b.rows+r] = v
	}
	b.sent[r/lanes] |= 1 << (r & lm)
}

// MoveRow copies row r of src into row to of b: its live set, or that it
// holds none. A token that changes batch, or its place in one, takes its row
// along this way.
func (b *Block) MoveRow(to int, src *Block, r int) {
	if !src.has(r) {
		b.sent[to/lanes] &^= 1 << (to & lm)
		return
	}
	b.widen(src.width)
	for i := range src.width {
		b.vals[i*b.rows+to] = src.vals[i*src.rows+r]
	}
	b.sent[to/lanes] |= 1 << (to & lm)
}

// Runner executes iterations of one compiled program (or one pipeline
// stage), holding its persistent array state between iterations. It mirrors
// interp.Runner's API for single iterations and adds RunBatch; like
// interp.Runner it is confined to a single goroutine.
type Runner struct {
	Prog  *ir.Program
	World *interp.World

	// RxFromCtx restricts pkt_rx to the iteration context's pre-pulled
	// packet, exactly as on interp.Runner: the streaming runtime sets it
	// on every stage runner so concurrent stages never race on the
	// World's packet cursor. It is read at execution time, so it may be
	// set after construction.
	RxFromCtx bool

	persistent *interp.Store

	blocks    []block // numbered in reverse post-order: the entry is block 0
	name      string
	lowered   Lowered
	rx, emits bool // the program calls pkt_rx / records events

	// cols is the frame: one column per register the lowered program still
	// references, allocated once at compile time, its constant columns
	// filled in then, and captured by the closures column by column.
	// Nothing copies it between batches: resets lists the few registers
	// that must read as zero when an iteration starts. void takes the
	// result of a call that has no result register.
	cols   []col
	void   col
	resets []int32

	// localArrs lists the distinct local arrays the program touches;
	// localBind holds their storage per lane, re-resolved from each
	// IterCtx at the top of every group (local state flows with the
	// iteration token, not with the stage).
	localArrs []*ir.Array
	localBind [][lanes][]int64

	// The batch's blocks, and the row of the group's lane 0 in them.
	in, out *Block
	base    int

	// The group being run, and what the closures need of each lane in
	// fixed arrays: its context, the packet as pkt_rx or a
	// copy-on-write last left it, the steps settled so far, the error that
	// took the lane out.
	its   []*interp.IterCtx
	ctxs  [lanes]*interp.IterCtx
	pkts  [lanes][]byte
	steps [lanes]int
	errs  [lanes]error
	nfail int

	// Control flow by selection: pend[b] is the set of lanes waiting to
	// enter block b, waiting the number of blocks with any, low a lower
	// bound on the first of them. cur backs the selection being run. A
	// guard op takes lanes out of it: gone holds them and exits where each
	// goes, until run or runExact moves them on.
	pend    []uint32
	waiting int
	low     int
	cur     [lanes]lane
	solo    [1]lane // runExact's selection
	gone    uint32
	exits   [lanes]exit

	// RunIterationInto's batch of one: recv and dst are its blocks' one row.
	one           [1]*interp.IterCtx
	recvOne, dst1 Block

	// slab is the rest of the chunk packet copies are carved from. It
	// carries over from batch to batch, so a batch of one packet costs no
	// chunk of its own.
	slab []byte

	dispatched int // closures called, for the shape tests
}

// NewRunner compiles prog against freshly initialized persistent state.
func NewRunner(prog *ir.Program, world *interp.World) *Runner {
	return NewRunnerShared(prog, world, interp.NewStore(prog))
}

// NewRunnerShared compiles prog against an existing persistent store. The
// store must be supplied up front because compilation binds persistent
// arrays to their storage slices at closure-build time — a store swapped in
// afterwards would be silently ignored. The sharded serve runtime uses this
// to compile every pipeline replica against the one shared store.
func NewRunnerShared(prog *ir.Program, world *interp.World, store *interp.Store) *Runner {
	r := newRunner(prog, world, store)
	lw := lowerers.Get().(*lowerer)
	r.compile(lw)
	lw.f, lw.dom = nil, nil
	lowerers.Put(lw)
	return r
}

// lowerers keeps lowerers' analysis tables from one compile to the next.
var lowerers = sync.Pool{New: func() any { return new(lowerer) }}

func newRunner(prog *ir.Program, world *interp.World, store *interp.Store) *Runner {
	r := &Runner{Prog: prog, World: world, persistent: store}
	for _, b := range [2]*Block{&r.recvOne, &r.dst1} {
		b.rows, b.sent = 1, b.few[:1]
	}
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
		runners[i] = newRunner(s, world, shared)
		runners[i].compile(lw)
	}
	return runners
}

// PersistentStore returns the runner's persistent-array store.
func (m *Runner) PersistentStore() *interp.Store { return m.persistent }

// Lowered reports what the lowering did to the runner's program.
func (m *Runner) Lowered() Lowered { return m.lowered }

// RunIterationInto executes one PPS-loop iteration of the compiled program
// in the given per-iteration context. recv supplies the live-set slot
// values consumed by OpRecvLS (nil for a first stage / sequential program);
// the values sent by OpSendLS are returned, in dst when it has capacity for
// them (the handoff then allocates nothing), else in a fresh slice; an
// iteration that sends nothing returns nil. The semantics — including
// error cases and the MaxSteps bound — match interp.Runner.RunIteration
// exactly. It is a RunBatch of one, whose blocks are recv and dst seen as
// one row each (nil recv: nothing was sent).
func (m *Runner) RunIterationInto(ctx *interp.IterCtx, recv, dst []int64) ([]int64, error) {
	in, out := &m.recvOne, &m.dst1
	in.vals, in.width, in.sent[0] = recv, len(recv), 0
	if recv != nil {
		in.sent[0] = 1
	}
	if out.vals = dst[:cap(dst)]; len(out.vals) < out.width {
		out.width = 0 // the send widens the block again, into a new array
	}
	m.one[0] = ctx
	err := m.RunBatch(m.one[:], in, out)
	var sent []int64
	if out.sent[0] != 0 {
		sent = out.vals[:out.width] // one row: the slots lie in order
	}
	m.one[0], in.vals, out.vals = nil, nil, nil
	if err != nil {
		return nil, err
	}
	return sent, nil
}

// RunBatch executes one PPS-loop iteration in each context of its, as
// RunIterationInto would one after the other — same events, same live sets, same persistent
// state. Iteration l's incoming live set is row l of in, and its outgoing
// one goes to row l of out, which RunBatch empties first; a nil block is
// one that holds nothing, and what is sent to it is dropped. Every
// OpSendLS of one batch must send one width, as the one OpSendLS of a
// realized stage does. A stage that carries nothing from one iteration to
// the next (Lowered.Serial is false) runs every op over all of them before
// the next op. The error is that of the first iteration that failed; the
// iterations after it may or may not have run.
func (m *Runner) RunBatch(its []*interp.IterCtx, in, out *Block) error {
	for _, b := range [2]*Block{in, out} {
		if b != nil && b.rows < len(its) {
			panic(fmt.Sprintf("exec: a batch of %d iterations on a block of %d rows", len(its), b.rows))
		}
	}
	if out != nil {
		out.Reset()
	}
	m.in, m.out = in, out
	for base := 0; base < len(its); base += lanes {
		m.base = base
		if err := m.group(its[base:min(base+lanes, len(its))]); err != nil {
			return err
		}
	}
	return nil
}

// group runs up to lanes iterations: it binds each lane's state, brings the
// frame to its iteration-start image and dispatches from the entry block —
// all lanes together, or one at a time, in order, when something the stage
// touches orders its iterations:
// carried state (costmodel.Use.Carries), the World's packet cursor,
// the World's trace.
func (m *Runner) group(its []*interp.IterCtx) error {
	n := len(its)
	m.its = its
	if m.waiting+m.nfail != 0 {
		// A panic unwound the last group in mid-flight.
		clear(m.pend)
		clear(m.errs[:])
		m.waiting, m.nfail = 0, 0
	}
	for _, s := range m.resets {
		clear(m.cols[s][:n])
	}
	deferred := true
	for l, ctx := range its {
		if m.ctxs[l] != ctx {
			m.ctxs[l] = ctx // a context a batch slot keeps costs no write barrier
		}
		m.pkts[l], m.steps[l], m.cur[l] = ctx.Pkt, 0, lane(l)
		deferred = deferred && ctx.DeferEvents
		for i, a := range m.localArrs {
			m.localBind[i][l] = ctx.Local(a.ID, a.Size)
		}
	}
	if n > 1 && (m.lowered.Serial || m.rx && !m.RxFromCtx || m.emits && !deferred) {
		for l := 0; l < n && m.nfail == 0; l++ {
			m.cur[0] = lane(l)
			m.run(0, m.cur[:1])
		}
	} else {
		m.run(0, m.cur[:n])
	}
	if m.nfail == 0 {
		return nil
	}
	m.nfail = 0
	var first error
	for l := n - 1; l >= 0; l-- {
		if m.errs[l] != nil {
			first, m.errs[l] = m.errs[l], nil
		}
	}
	return first
}

// run drives sel from block bi until every lane has returned or failed.
// While the lanes agree on every branch they move from block to block as
// one selection and nothing else is touched. Where they split, each part is
// parked under its block, and from then on the lowest-numbered block with
// lanes waiting runs next (blocks are numbered in reverse post-order), so a
// join collects the lanes of all its predecessors before it runs.
//
// A selection whose next block is numbered below every waiting block runs on
// without parking: the lowest waiting block would be that one, with the
// same lanes.
//
// Steps are exact per lane without being counted per lane: acc is what the
// selection has run up since it formed, top the most any of its lanes had
// before; the sum settles into steps when the selection splits, or when a
// guard sends a lane off, at the guard's offset in its block. A selection
// that comes within one block of MaxSteps finishes lane by lane in runExact.
func (m *Runner) run(bi int, sel []lane) {
	blocks := m.blocks
	top, acc, nf := 0, 0, m.nfail
	for {
	flow:
		for bi >= 0 {
			b := &blocks[bi]
			if top+acc+b.cost > interp.MaxSteps {
				for _, l := range sel {
					m.runExact(bi, l, m.steps[l&lm]+acc)
				}
				sel = sel[:0]
				break
			}
			acc += b.cost
			m.dispatched += len(b.body) + 1
			for _, fn := range b.body {
				fn(m, sel)
				if m.nfail != nf || m.gone != 0 {
					// An op raised an error, or a guard sent lanes off:
					// they stop here.
					if sel, nf = m.prune(sel, acc-b.cost), m.nfail; len(sel) == 0 {
						break flow
					}
				}
			}
			if bi = b.term(m, sel); m.waiting > 0 && bi >= m.low {
				m.park(bi, maskOf(sel))
				bi = pcNone
			}
		}
		if m.waiting == 0 {
			return
		}
		for _, l := range sel {
			m.steps[l&lm] += acc
		}
		bi, sel = m.pop()
		top, acc, nf = 0, 0, m.nfail
		for _, l := range sel {
			top = max(top, m.steps[l&lm])
		}
	}
}

// runExact finishes lane l from block bi with per-instruction step
// accounting (the interpreter increments and checks before executing each
// instruction). It runs only when an iteration comes within one block of
// MaxSteps, so its cost is irrelevant; what matters is that its counting is
// byte-exact. An op runs only if the budget covers its anchor instruction
// (a guard op's first guard); the ones that were folded or fused away
// before the anchor are pure, so whether the limit lands on one of them or
// on the anchor cannot be told apart. Guards are pure too: a lane a guard
// sends off needs the budget to reach that guard.
func (m *Runner) runExact(bi int, l lane, steps int) {
	m.solo[0] = l
	sel := m.solo[:]
blocks:
	for bi >= 0 {
		b := &m.blocks[bi]
		for i, fn := range b.body {
			if steps+int(b.at[i]) > interp.MaxSteps {
				m.stepLimit(l)
				return
			}
			if fn(m, sel); m.errs[l&lm] != nil {
				return
			}
			if m.gone != 0 {
				e := m.exits[l&lm]
				if m.gone, steps = 0, steps+int(e.at); steps > interp.MaxSteps {
					m.stepLimit(l)
					return
				}
				bi = int(e.to)
				continue blocks
			}
		}
		if steps+b.cost > interp.MaxSteps {
			m.stepLimit(l)
			return
		}
		steps += b.cost
		bi = b.term(m, sel)
	}
}

func (m *Runner) stepLimit(l lane) {
	m.fail(l, fmt.Errorf("%s: step limit exceeded (non-terminating inner loop?)", m.name))
}

// fail takes lane l out with err: no later op runs for it.
func (m *Runner) fail(l lane, err error) {
	m.errs[l&lm] = err
	m.nfail++
}

// prune drops from sel, in place, the lanes that failed and the lanes a
// guard sent off. It parks the latter at their exits, their steps settled:
// base is what the selection ran up before the guard's block.
func (m *Runner) prune(sel []lane, base int) []lane {
	keep := sel[:0]
	for _, l := range sel {
		switch {
		case m.errs[l&lm] != nil:
		case m.gone>>(l&lm)&1 != 0:
			e := m.exits[l&lm]
			m.steps[l&lm] += base + int(e.at)
			m.park(int(e.to), 1<<(l&lm))
		default:
			keep = append(keep, l)
		}
	}
	m.gone = 0
	return keep
}

func maskOf(sel []lane) (mask uint32) {
	for _, l := range sel {
		mask |= 1 << (l & lm)
	}
	return mask
}

// spread appends the lanes of mask to sel, lowest first.
func spread(sel []lane, mask uint32) []lane {
	for ; mask != 0; mask &= mask - 1 {
		sel = append(sel, lane(bits.TrailingZeros32(mask)))
	}
	return sel
}

// park leaves the lanes of mask waiting to enter block to.
func (m *Runner) park(to int, mask uint32) {
	if m.pend[to] == 0 {
		if m.waiting == 0 {
			m.low = to // a bound left from before would be needlessly low
		}
		m.waiting++
	}
	m.pend[to] |= mask
	m.low = min(m.low, to)
}

// pop takes the lowest-numbered block with lanes waiting, and the lanes.
func (m *Runner) pop() (int, []lane) {
	bi := m.low
	for m.pend[bi] == 0 {
		bi++
	}
	sel := spread(m.cur[:0], m.pend[bi])
	m.pend[bi], m.low = 0, bi
	m.waiting--
	return bi, sel
}

// emit routes an observable event the way the interpreter does: into the
// iteration's deferred buffer when the context asks for it, else straight
// onto the shared World trace.
func (m *Runner) emit(ctx *interp.IterCtx, e interp.Event) {
	if ctx.DeferEvents {
		ctx.Events = append(ctx.Events, e)
		return
	}
	m.World.EmitEvent(e)
}

// slabChunk is the size packet copies are allocated in: one allocation per
// few hundred packets instead of one per packet.
const slabChunk = 16 << 10

// copyPkt returns a private copy of p, carved from the slab with its
// capacity clipped so that nothing can grow into its neighbour.
func (m *Runner) copyPkt(p []byte) []byte {
	n := len(p)
	if len(m.slab) < n || m.slab == nil {
		m.slab = make([]byte, max(n, slabChunk))
	}
	buf := m.slab[:n:n]
	m.slab = m.slab[n:]
	copy(buf, p)
	return buf
}

// writable returns lane l's packet for writing. pkt_send hands the packet's
// buffer to the event it records instead of copying it; the first write
// after that copies, so the event keeps the bytes that were sent.
func (m *Runner) writable(l lane) []byte {
	if ctx := m.ctxs[l&lm]; ctx.PktShared {
		ctx.Pkt, ctx.PktShared = m.copyPkt(ctx.Pkt), false
		m.pkts[l&lm] = ctx.Pkt
	}
	return m.pkts[l&lm]
}

// exit is where a guard sends a lane whose value matches its case: the
// block, and the steps from the top of the guard's block through the guard.
type exit struct{ to, at int32 }

// branch ends a block on a two-way test: taken holds the bit of every
// selected lane whose test held. Lanes that agree stay one selection.
func (m *Runner) branch(sel []lane, taken uint32, yes, no int) int {
	switch bits.OnesCount32(taken) {
	case len(sel):
		return yes
	case 0:
		return no
	}
	return m.split(sel, taken, yes, no)
}

func (m *Runner) split(sel []lane, taken uint32, yes, no int) int {
	m.park(yes, taken)
	m.park(no, maskOf(sel)&^taken)
	return pcNone
}

// fan ends a block on a many-way test: masks[i] holds the lanes that chose
// targets[i], and is cleared for the next use.
func (m *Runner) fan(sel []lane, masks []uint32, targets []int) int {
	to := pcNone
	for i, mask := range masks {
		switch {
		case mask == 0:
		case bits.OnesCount32(mask) == len(sel):
			to = targets[i]
		default:
			m.park(targets[i], mask)
		}
		masks[i] = 0
	}
	return to
}

// compile lowers the program (lower.go), lays out the frame, and emits one
// closure per surviving op with every register, array and branch target
// resolved.
func (m *Runner) compile(lw *lowerer) {
	f := m.Prog.Func
	m.name = f.Name
	lw.lower(f)
	m.lowered, m.rx, m.emits = lw.stats, lw.rx, lw.emits

	m.cols = make([]col, lw.nslots)
	for _, c := range lw.consts {
		for l := range m.cols[c.slot] {
			m.cols[c.slot][l] = c.val
		}
	}
	m.resets = append([]int32(nil), lw.resets...)

	// Every block's body and step offsets are slices of two arrays.
	m.blocks = make([]block, len(lw.order))
	m.pend = make([]uint32, len(lw.order))
	nbody := lw.stats.Ops - len(lw.order)
	fns := make([]opFn, 0, nbody)
	ats := make([]int32, 0, nbody)
	for num, id := range lw.order {
		lb, bl := lw.blocks[id], &m.blocks[num]
		first := len(fns)
		for i := lb.lo; i < lb.hi; i++ {
			switch op := &lw.ops[i]; {
			case op.kind == kDead, lw.guardTail(i, lb.lo):
			case op.kind == kGuard:
				n := i + 1
				for n < lb.hi && lw.ops[n].kind == kGuard {
					n++
				}
				fns = append(fns, m.emitGuard(lw, lw.ops[i:n]))
				ats = append(ats, op.at)
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
	m.localBind = make([][lanes][]int64, len(m.localArrs))
}

// col returns the frame column of IR register r.
func (m *Runner) col(lw *lowerer, r int) *col { return &m.cols[lw.slot(r)] }

// dst is col for a destination that may be absent (a call with no result):
// the value then lands in a column nothing reads, which mirrors the
// interpreter's in.Dst != ir.NoReg check.
func (m *Runner) dst(lw *lowerer, r int) *col {
	if r < 0 {
		return &m.void
	}
	return m.col(lw, r)
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

// emitTerm emits the control-transfer closure that ends a block.
func (m *Runner) emitTerm(lw *lowerer, op *lop) termFn {
	switch op.kind {
	case kJmp:
		to := lw.blockNum(int(op.k))
		return func(m *Runner, sel []lane) int { return to }
	case kBr, kCmpBr, kCmpBrImm:
		yes, no := lw.blockNum(op.in.Targets[0]), lw.blockNum(op.in.Targets[1])
		a := m.col(lw, int(op.a))
		switch op.kind {
		case kCmpBr:
			return cmpBr(op.op, a, m.col(lw, int(op.b)), yes, no)
		case kCmpBrImm:
			return cmpBrImm(op.op, a, op.k, yes, no)
		}
		return cmpBrImm(ir.OpNe, a, 0, yes, no)
	case kSwitch:
		return m.emitSwitch(lw, op)
	case kRet:
		return func(m *Runner, sel []lane) int { return pcNone }
	case kFell:
		fell := raise(fmt.Errorf("%s: b%d fell off the end without a terminator", m.name, op.blk))
		return func(m *Runner, sel []lane) int {
			fell(m, sel)
			return pcNone
		}
	}
	panic("exec: emitTerm on a body op") // unreachable: compile routes by isTerm
}

// emitSwitch emits a switch: a compare when there is one case, a table
// from value to target when the cases are dense, else the interpreter's
// first-match linear scan.
func (m *Runner) emitSwitch(lw *lowerer, op *lop) termFn {
	in := op.in
	v := m.col(lw, int(op.a))
	targets := make([]int, len(in.Targets))
	for i, t := range in.Targets {
		targets[i] = lw.blockNum(t)
	}
	def := len(targets) - 1
	var masks []uint32 // lanes per target, cleared by fan
	if len(in.Cases) > 0 {
		lo, hi := in.Cases[0], in.Cases[0]
		for _, cv := range in.Cases {
			lo, hi = min(lo, cv), max(hi, cv)
		}
		// Differences are taken in uint64, where they are exact for any
		// pair of int64 values.
		if span := uint64(hi) - uint64(lo); span == 0 {
			// One case (the control-predicate test a realized stage opens
			// with): a compare.
			return cmpBrImm(ir.OpEq, v, lo, targets[0], targets[def])
		} else if span < uint64(4*len(in.Cases)) {
			masks = make([]uint32, len(targets))
			table := make([]int32, span+1)
			for i := range table {
				table[i] = int32(def)
			}
			for i := len(in.Cases) - 1; i >= 0; i-- { // the first match wins
				table[uint64(in.Cases[i])-uint64(lo)] = int32(i)
			}
			return func(m *Runner, sel []lane) int {
				for _, l := range sel {
					e := def
					if d := uint64(v[l&lm]) - uint64(lo); d < uint64(len(table)) {
						e = int(table[d])
					}
					masks[e] |= 1 << (l & lm)
				}
				return m.fan(sel, masks, targets)
			}
		}
	}
	cases := append([]int64(nil), in.Cases...)
	masks = make([]uint32, len(targets))
	return func(m *Runner, sel []lane) int {
		for _, l := range sel {
			e, x := def, v[l&lm]
			for i, cv := range cases {
				if x == cv {
					e = i
					break
				}
			}
			masks[e] |= 1 << (l & lm)
		}
		return m.fan(sel, masks, targets)
	}
}

// emitGuard emits a run of guards as one op: a lane whose value matches the
// case of guard i, and no case before it, leaves for guard i's exit.
func (m *Runner) emitGuard(lw *lowerer, run []lop) opFn {
	type guard struct {
		v    *col
		k    int64
		exit exit
	}
	gs := make([]guard, len(run))
	for i, g := range run {
		gs[i] = guard{m.col(lw, int(g.a)), g.k, exit{int32(lw.blockNum(g.in.Targets[0])), g.at}}
	}
	return func(m *Runner, sel []lane) {
		var gone uint32
		for _, g := range gs {
			v, k, hit := g.v, g.k, uint32(0)
			for _, l := range sel {
				if v[l&lm] == k {
					hit |= 1 << (l & lm)
				}
			}
			for hit &^= gone; hit != 0; hit &= hit - 1 {
				m.exits[bits.TrailingZeros32(hit)&lm] = g.exit
				gone |= hit & -hit
			}
		}
		m.gone = gone
	}
}

// cmpBr is a comparison fused with the br that was its only reader. Three
// tests serve the six comparisons: the others swap the targets.
func cmpBr(op ir.Op, a, b *col, yes, no int) termFn {
	switch op {
	case ir.OpNe:
		return cmpBr(ir.OpEq, a, b, no, yes)
	case ir.OpGt:
		return cmpBr(ir.OpLe, a, b, no, yes)
	case ir.OpGe:
		return cmpBr(ir.OpLt, a, b, no, yes)
	case ir.OpEq:
		return func(m *Runner, sel []lane) int {
			var taken uint32
			for _, l := range sel {
				taken |= uint32(ir.Bool(a[l&lm] == b[l&lm])) << (l & lm)
			}
			return m.branch(sel, taken, yes, no)
		}
	case ir.OpLt:
		return func(m *Runner, sel []lane) int {
			var taken uint32
			for _, l := range sel {
				taken |= uint32(ir.Bool(a[l&lm] < b[l&lm])) << (l & lm)
			}
			return m.branch(sel, taken, yes, no)
		}
	case ir.OpLe:
		return func(m *Runner, sel []lane) int {
			var taken uint32
			for _, l := range sel {
				taken |= uint32(ir.Bool(a[l&lm] <= b[l&lm])) << (l & lm)
			}
			return m.branch(sel, taken, yes, no)
		}
	}
	panic("exec: cmpBr on " + op.String()) // unreachable: fuseCompare admits comparisons only
}

// cmpBrImm is cmpBr against a constant.
func cmpBrImm(op ir.Op, a *col, k int64, yes, no int) termFn {
	switch op {
	case ir.OpNe:
		return cmpBrImm(ir.OpEq, a, k, no, yes)
	case ir.OpGt:
		return cmpBrImm(ir.OpLe, a, k, no, yes)
	case ir.OpGe:
		return cmpBrImm(ir.OpLt, a, k, no, yes)
	case ir.OpEq:
		return func(m *Runner, sel []lane) int {
			var taken uint32
			for _, l := range sel {
				taken |= uint32(ir.Bool(a[l&lm] == k)) << (l & lm)
			}
			return m.branch(sel, taken, yes, no)
		}
	case ir.OpLt:
		return func(m *Runner, sel []lane) int {
			var taken uint32
			for _, l := range sel {
				taken |= uint32(ir.Bool(a[l&lm] < k)) << (l & lm)
			}
			return m.branch(sel, taken, yes, no)
		}
	case ir.OpLe:
		return func(m *Runner, sel []lane) int {
			var taken uint32
			for _, l := range sel {
				taken |= uint32(ir.Bool(a[l&lm] <= k)) << (l & lm)
			}
			return m.branch(sel, taken, yes, no)
		}
	}
	panic("exec: cmpBrImm on " + op.String()) // unreachable: fuseCompare admits comparisons only
}

// emitOp emits the closure for one body op. Operand and destination
// registers are captured as pointers to their frame columns, so the lane
// loops index fixed-size arrays and carry no bounds checks. Every
// superinstruction keeps the edge semantics of the instructions it stands
// for: packet offsets outside the packet read 0 byte by byte, a call
// without a result register writes none.
func (m *Runner) emitOp(lw *lowerer, op *lop) opFn {
	if op.kind == kInstr {
		return m.emitInstr(lw, int(op.blk), op.in)
	}
	d := m.dst(lw, int(op.dst))
	k, k2 := op.k, op.k2
	switch op.kind {
	case kSetImm:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = k
			}
		}
	case kBinImm:
		return binImm(op.op, d, m.col(lw, int(op.a)), k)
	case kPktByteImm:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.PktByte(m.pkts[l&lm], k)
			}
		}
	case kBE16:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				pkt := m.pkts[l&lm]
				d[l&lm] = ir.PktByte(pkt, k)<<8 | ir.PktByte(pkt, k2)
			}
		}
	case kAccBE16:
		a := m.col(lw, int(op.a))
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				pkt := m.pkts[l&lm]
				d[l&lm] = a[l&lm] + (ir.PktByte(pkt, k)<<8 | ir.PktByte(pkt, k2))
			}
		}
	case kMetaGetImm:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = m.ctxs[l&lm].Meta[k]
			}
		}
	case kMetaSetImm:
		a := m.col(lw, int(op.a))
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				m.ctxs[l&lm].Meta[k] = a[l&lm]
				d[l&lm] = 0
			}
		}
	case kSetByteImm:
		a := m.col(lw, int(op.a))
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				ir.SetPktByte(m.writable(l), k, a[l&lm])
				d[l&lm] = 0
			}
		}
	}
	panic("exec: emitOp on a terminator") // unreachable: compile routes by isTerm
}

// binImm is a binary operator with its right operand a constant.
func binImm(op ir.Op, d, a *col, k int64) opFn {
	switch op {
	case ir.OpAdd:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = a[l&lm] + k
			}
		}
	case ir.OpSub:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = a[l&lm] - k
			}
		}
	case ir.OpMul:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = a[l&lm] * k
			}
		}
	case ir.OpAnd:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = a[l&lm] & k
			}
		}
	case ir.OpOr:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = a[l&lm] | k
			}
		}
	case ir.OpXor:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = a[l&lm] ^ k
			}
		}
	case ir.OpShl:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.Shl(a[l&lm], k)
			}
		}
	case ir.OpShr:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.Shr(a[l&lm], k)
			}
		}
	case ir.OpEq:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.Bool(a[l&lm] == k)
			}
		}
	case ir.OpNe:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.Bool(a[l&lm] != k)
			}
		}
	case ir.OpLt:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.Bool(a[l&lm] < k)
			}
		}
	case ir.OpLe:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.Bool(a[l&lm] <= k)
			}
		}
	case ir.OpGt:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.Bool(a[l&lm] > k)
			}
		}
	case ir.OpGe:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.Bool(a[l&lm] >= k)
			}
		}
	}
	panic("exec: binImm on " + op.String()) // unreachable: lowerer.binary excludes div and mod
}

// emitInstr emits the specialized closure for one straight-line
// (non-terminator) instruction in its register-operand form.
func (m *Runner) emitInstr(lw *lowerer, blk int, in *ir.Instr) opFn {
	switch {
	case in.Op == ir.OpCopy:
		d, a := m.col(lw, in.Dst), m.col(lw, in.Args[0])
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = a[l&lm]
			}
		}
	case in.Op.IsBinary():
		return binRR(in.Op, m.col(lw, in.Dst), m.col(lw, in.Args[0]), m.col(lw, in.Args[1]))

	case in.Op == ir.OpNeg:
		d, a := m.col(lw, in.Dst), m.col(lw, in.Args[0])
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = -a[l&lm]
			}
		}
	case in.Op == ir.OpNot:
		d, a := m.col(lw, in.Dst), m.col(lw, in.Args[0])
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.Bool(a[l&lm] == 0)
			}
		}
	case in.Op == ir.OpBNot:
		d, a := m.col(lw, in.Dst), m.col(lw, in.Args[0])
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ^a[l&lm]
			}
		}

	case in.Op == ir.OpLoad || in.Op == ir.OpStore:
		arr := in.Arr
		if arr == nil {
			// Defer the interpreter's nil-array dereference to execution
			// time (a hand-built program only fails if the path runs).
			return func(m *Runner, sel []lane) { _ = arr.Size }
		}
		return m.emitMem(lw, in, arr)

	case in.Op == ir.OpCall:
		return m.emitCall(lw, in)

	case in.Op == ir.OpSendLS:
		return m.emitSend(lw, in)
	case in.Op == ir.OpRecvLS:
		return m.emitRecv(lw, in)
	}

	// Everything else is what the interpreter cannot evaluate: reproduce
	// its error, but only if the instruction is ever reached. (An OpConst
	// never arrives here: lower.go folds it or turns it into a
	// store-immediate.)
	return raise(fmt.Errorf("%s: b%d: cannot evaluate %s", m.name, blk, in))
}

// copyMin is the fewest lanes a whole-group OpSendLS or OpRecvLS moves a
// column at with one copy: below it the call costs more than the stores.
const copyMin = 8

// emitSend emits OpSendLS: each frame column is gathered into its block
// column, with one copy when a whole group of copyMin lanes or more sends,
// and the lanes' sent bits are set.
func (m *Runner) emitSend(lw *lowerer, in *ir.Instr) opFn {
	cols := make([]*col, len(in.Args))
	for i, a := range in.Args {
		cols[i] = m.col(lw, a)
	}
	name := m.name
	return func(m *Runner, sel []lane) {
		b, base, mask := m.out, m.base, maskOf(sel)
		if b == nil {
			return
		}
		if b.width != len(cols) {
			if b.sentBesides(base, mask) {
				for _, l := range sel {
					m.fail(l, fmt.Errorf("%s: sendls of %d slots into a batch that sent %d", name, len(cols), b.width))
				}
				return
			}
			b.widen(len(cols))
		}
		if n := len(m.its); len(sel) == n && n >= copyMin {
			for i, c := range cols {
				copy(b.vals[i*b.rows+base:][:n], c[:n])
			}
		} else {
			vals, rows := b.vals, b.rows
			for _, l := range sel {
				r := base + int(l)
				for _, c := range cols {
					vals[r] = c[l&lm]
					r += rows
				}
			}
		}
		b.sent[base/lanes] |= mask
	}
}

// emitRecv emits OpRecvLS: each block column is copied into its frame
// column, with one copy when a whole group of copyMin lanes or more receives
// a live set of the width expected. A lane whose row holds a live set of
// another width, or none, fails.
func (m *Runner) emitRecv(lw *lowerer, in *ir.Instr) opFn {
	cols := make([]*col, len(in.Dsts))
	for i, d := range in.Dsts {
		cols[i] = m.col(lw, d)
	}
	name := m.name
	return func(m *Runner, sel []lane) {
		base := m.base
		var (
			got         uint32
			vals        []int64
			rows, width int
		)
		if b := m.in; b != nil {
			got, vals, rows, width = b.sent[base/lanes], b.vals, b.rows, b.width
		}
		if n := len(m.its); len(sel) == n && n >= copyMin && width == len(cols) && got|^uint32(0)>>(lanes-n) == got {
			for i, c := range cols {
				copy(c[:n], vals[i*rows+base:])
			}
			return
		}
		for _, l := range sel {
			w := 0
			if got>>(l&lm)&1 != 0 {
				w = width
			}
			if w != len(cols) {
				m.fail(l, fmt.Errorf("%s: recvls expects %d slots, got %d", name, len(cols), w))
				continue
			}
			r := base + int(l)
			for _, c := range cols {
				c[l&lm] = vals[r]
				r += rows
			}
		}
	}
}

// raise is the op that fails every lane that reaches it.
func raise(err error) opFn {
	return func(m *Runner, sel []lane) {
		for _, l := range sel {
			m.fail(l, err)
		}
	}
}

// emitMem emits a load or a store: a persistent array is bound to its
// storage here, a local one through the lane's bind slot.
func (m *Runner) emitMem(lw *lowerer, in *ir.Instr, arr *ir.Array) opFn {
	idx, size := m.col(lw, in.Args[0]), arr.Size
	var st []int64
	slot := 0
	if arr.Persistent {
		st = m.persistent.Get(arr)
	} else {
		slot = m.bindLocal(arr)
	}
	if in.Op == ir.OpLoad {
		d := m.col(lw, in.Dst)
		if arr.Persistent {
			return func(m *Runner, sel []lane) {
				for _, l := range sel {
					d[l&lm] = st[ir.Wrap(idx[l&lm], size)]
				}
			}
		}
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = m.localBind[slot][l&lm][ir.Wrap(idx[l&lm], size)]
			}
		}
	}
	val := m.col(lw, in.Args[1])
	if arr.Persistent {
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				st[ir.Wrap(idx[l&lm], size)] = val[l&lm]
			}
		}
	}
	return func(m *Runner, sel []lane) {
		for _, l := range sel {
			m.localBind[slot][l&lm][ir.Wrap(idx[l&lm], size)] = val[l&lm]
		}
	}
}

// binRR is a binary operator over two registers.
func binRR(op ir.Op, d, a, b *col) opFn {
	switch op {
	case ir.OpAdd:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = a[l&lm] + b[l&lm]
			}
		}
	case ir.OpSub:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = a[l&lm] - b[l&lm]
			}
		}
	case ir.OpMul:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = a[l&lm] * b[l&lm]
			}
		}
	case ir.OpDiv:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.Div(a[l&lm], b[l&lm])
			}
		}
	case ir.OpMod:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.Mod(a[l&lm], b[l&lm])
			}
		}
	case ir.OpAnd:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = a[l&lm] & b[l&lm]
			}
		}
	case ir.OpOr:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = a[l&lm] | b[l&lm]
			}
		}
	case ir.OpXor:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = a[l&lm] ^ b[l&lm]
			}
		}
	case ir.OpShl:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.Shl(a[l&lm], b[l&lm])
			}
		}
	case ir.OpShr:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.Shr(a[l&lm], b[l&lm])
			}
		}
	case ir.OpEq:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.Bool(a[l&lm] == b[l&lm])
			}
		}
	case ir.OpNe:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.Bool(a[l&lm] != b[l&lm])
			}
		}
	case ir.OpLt:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.Bool(a[l&lm] < b[l&lm])
			}
		}
	case ir.OpLe:
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.Bool(a[l&lm] <= b[l&lm])
			}
		}
	case ir.OpGt:
		return binRR(ir.OpLt, d, b, a)
	case ir.OpGe:
		return binRR(ir.OpLe, d, b, a)
	}
	panic("exec: binRR on " + op.String()) // unreachable: emitInstr routes by IsBinary
}

// emitCall specializes an intrinsic call: the name is resolved once here
// instead of once per execution, and each intrinsic becomes a dedicated
// closure over its argument and destination columns. The semantics of every
// intrinsic match interp.Runner.intrinsic exactly, but for the packet's
// storage: pkt_rx copies into the runner's slab (or adopts a packet the
// source handed over), pkt_send hands the buffer to the event, and the
// packet writes copy first when an event holds it.
func (m *Runner) emitCall(lw *lowerer, in *ir.Instr) opFn {
	d := m.dst(lw, in.Dst)
	arg := func(i int) *col { return m.col(lw, in.Args[i]) }

	switch in.Call {
	case "pkt_rx":
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				ctx := m.ctxs[l&lm]
				var p []byte
				owned := false
				if ctx.HasPending {
					p, owned = ctx.Pending, ctx.PendingOwned
					ctx.Pending, ctx.HasPending = nil, false
				} else if !m.RxFromCtx {
					p = m.World.RxPacket()
				}
				if p != nil && !owned {
					p = m.copyPkt(p)
				}
				ctx.Pkt, ctx.HasPkt, ctx.PktShared = p, p != nil, false
				m.pkts[l&lm] = p
				if d[l&lm] = int64(len(p)); p == nil {
					d[l&lm] = -1
				}
			}
		}
	case "pkt_len":
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = int64(len(m.pkts[l&lm]))
			}
		}
	case "pkt_byte":
		a := arg(0)
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.PktByte(m.pkts[l&lm], a[l&lm])
			}
		}
	case "pkt_word":
		a := arg(0)
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.PktWord(m.pkts[l&lm], a[l&lm])
			}
		}
	case "pkt_setbyte":
		a, b := arg(0), arg(1)
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				ir.SetPktByte(m.writable(l), a[l&lm], b[l&lm])
				d[l&lm] = 0
			}
		}
	case "pkt_setword":
		a, b := arg(0), arg(1)
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				ir.SetPktWord(m.writable(l), a[l&lm], b[l&lm])
				d[l&lm] = 0
			}
		}
	case "pkt_send":
		a := arg(0)
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				ctx := m.ctxs[l&lm]
				m.emit(ctx, interp.Event{Kind: interp.EvSend, Val: a[l&lm], Pkt: ctx.Pkt})
				ctx.PktShared = true
				d[l&lm] = 0
			}
		}
	case "pkt_drop":
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				m.emit(m.ctxs[l&lm], interp.Event{Kind: interp.EvDrop})
				d[l&lm] = 0
			}
		}
	case "meta_get":
		a := arg(0)
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = m.ctxs[l&lm].Meta[ir.Wrap(a[l&lm], metaWords)]
			}
		}
	case "meta_set":
		a, b := arg(0), arg(1)
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				m.ctxs[l&lm].Meta[ir.Wrap(a[l&lm], metaWords)] = b[l&lm]
				d[l&lm] = 0
			}
		}
	case "rt_lookup":
		a := arg(0)
		return func(m *Runner, sel []lane) {
			rt := m.World.RT4
			for _, l := range sel {
				if d[l&lm] = -1; rt != nil {
					d[l&lm] = rt(a[l&lm])
				}
			}
		}
	case "rt6_lookup":
		a, b := arg(0), arg(1)
		return func(m *Runner, sel []lane) {
			rt := m.World.RT6
			for _, l := range sel {
				if d[l&lm] = -1; rt != nil {
					d[l&lm] = rt(a[l&lm], b[l&lm])
				}
			}
		}
	case "csum_fold":
		a := arg(0)
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.CsumFold(a[l&lm])
			}
		}
	case "hash_crc":
		a := arg(0)
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = ir.HashCRC(a[l&lm])
			}
		}
	case "q_put":
		a, b := arg(0), arg(1)
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				q := a[l&lm]
				m.World.Queues[q] = append(m.World.Queues[q], b[l&lm])
				d[l&lm] = 0
			}
		}
	case "q_get":
		a := arg(0)
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				q := a[l&lm]
				if vs := m.World.Queues[q]; len(vs) == 0 {
					d[l&lm] = -1
				} else {
					m.World.Queues[q], d[l&lm] = vs[1:], vs[0]
				}
			}
		}
	case "q_len":
		a := arg(0)
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				d[l&lm] = int64(len(m.World.Queues[a[l&lm]]))
			}
		}
	case "trace":
		a := arg(0)
		return func(m *Runner, sel []lane) {
			for _, l := range sel {
				m.emit(m.ctxs[l&lm], interp.Event{Kind: interp.EvTrace, Val: a[l&lm]})
				d[l&lm] = 0
			}
		}
	}
	return raise(fmt.Errorf("unknown intrinsic %q", in.Call))
}
