package interp

import (
	"fmt"

	"repro/internal/errs"
	"repro/internal/ir"
)

// MaxSteps bounds the instructions executed per iteration, guarding against
// accidentally non-terminating inner loops.
const MaxSteps = 1_000_000

// Runner executes the iterations of one program (or of one pipeline stage)
// against a World, holding its persistent array state between iterations.
type Runner struct {
	Prog  *ir.Program
	World *World

	// OnInstr, when set, is invoked for every executed instruction. The
	// network-processor simulator uses it to meter per-iteration cycle
	// demand.
	OnInstr func(in *ir.Instr)

	// RxFromCtx restricts pkt_rx to the iteration context's pre-pulled
	// packet: with it set, a pkt_rx that finds no pending packet reports
	// stream exhaustion instead of consuming from the shared World. It is
	// the discipline the streaming runtime imposes on its stage runners
	// (internal/exec's), so the interpreter can stand in for them as the
	// oracle of the differential tests.
	RxFromCtx bool

	persistent *Store

	// regs and phiVals are per-runner scratch buffers reused across
	// iterations (a Runner executes one iteration at a time), so a Chain —
	// the oracle, the cut-sweep check, the simulators — allocates no frame
	// per packet. regs is cleared every iteration, NumRegs long; a realized
	// stage numbers its registers densely, so that is what it touches.
	regs    []int64
	phiVals []int64
}

// Store is persistent-array storage, indexed densely by the
// compiler-assigned array ID. Pipeline stages of one program share a single
// Store (the partitioner guarantees each persistent array is touched by one
// stage only, so the stage goroutines of the streaming runtime never
// contend). It is shared by pointer so that an array materialized lazily by
// one runner (hand-built programs referencing arrays outside prog.Arrays)
// is visible to every runner sharing the store.
type Store struct {
	arrays [][]int64 // array ID -> storage (nil: not yet materialized)
}

// NewStore returns a store pre-populated with every persistent array of the
// given programs. Pre-population matters for the concurrent runtime: with
// all storage materialized up front, stage goroutines only ever read the
// store, so no locking is needed.
func NewStore(progs ...*ir.Program) *Store {
	s := &Store{}
	for _, p := range progs {
		for _, a := range p.Arrays {
			if a.Persistent {
				s.Get(a)
			}
		}
	}
	return s
}

// Get returns the storage for the persistent array a, materializing it
// (with a's initializer) on first touch.
func (s *Store) Get(a *ir.Array) []int64 {
	if a.ID >= len(s.arrays) {
		grown := make([][]int64, a.ID+1)
		copy(grown, s.arrays)
		s.arrays = grown
	}
	st := s.arrays[a.ID]
	if st == nil {
		st = make([]int64, a.Size)
		copy(st, a.Init)
		s.arrays[a.ID] = st
	}
	return st
}

// NewRunner creates a runner with freshly initialized persistent state.
func NewRunner(prog *ir.Program, world *World) *Runner {
	return &Runner{Prog: prog, World: world, persistent: NewStore(prog)}
}

// NewStageRunners builds one Runner per pipeline stage, all sharing one
// fully pre-populated persistent store (see NewStore).
func NewStageRunners(stages []*ir.Program, world *World) []*Runner {
	shared := NewStore(stages...)
	runners := make([]*Runner, len(stages))
	for i, s := range stages {
		runners[i] = &Runner{Prog: s, World: world, persistent: shared}
	}
	return runners
}

// emit routes an observable event: into the iteration's deferred buffer
// when the context asks for it (concurrent stage execution), else straight
// onto the shared World trace (sequential oracle paths).
func (r *Runner) emit(ctx *IterCtx, e Event) {
	if ctx.DeferEvents {
		ctx.Events = append(ctx.Events, e)
		return
	}
	r.World.emit(e)
}

// array returns the storage for arr in the given iteration context.
func (r *Runner) array(ctx *IterCtx, arr *ir.Array) []int64 {
	if arr.Persistent {
		return r.persistent.Get(arr)
	}
	return ctx.Local(arr.ID, arr.Size)
}

// RunIteration executes one PPS-loop iteration of r.Prog.Func in the given
// per-iteration context. recv supplies the live-set slot values consumed by
// OpRecvLS (nil for a first stage / sequential program); the values sent by
// OpSendLS are returned.
func (r *Runner) RunIteration(ctx *IterCtx, recv []int64) ([]int64, error) {
	return r.RunIterationInto(ctx, recv, nil)
}

// RunIterationInto is RunIteration with a caller-owned destination buffer
// for the outgoing live set: when dst has capacity for the slots OpSendLS
// emits, the returned slice aliases dst and the handoff allocates nothing.
// A nil (or too-small) dst falls back to allocating, and an iteration that
// sends nothing still returns nil. This mirrors the compiled backend's
// method of the same name so the streaming runtime can drive either
// backend through one zero-copy handoff path.
func (r *Runner) RunIterationInto(ctx *IterCtx, recv, dst []int64) (sent []int64, err error) {
	f := r.Prog.Func
	if cap(r.regs) < f.NumRegs {
		r.regs = make([]int64, f.NumRegs)
	}
	regs := r.regs[:f.NumRegs]
	clear(regs)
	cur := f.Blocks[f.Entry]
	prev := -1
	steps := 0

	for {
		// Phi instructions evaluate in parallel at block entry.
		nPhi := 0
		for _, in := range cur.Instrs {
			if in.Op != ir.OpPhi {
				break
			}
			nPhi++
		}
		if nPhi > 0 {
			if cap(r.phiVals) < nPhi {
				r.phiVals = make([]int64, nPhi)
			}
			vals := r.phiVals[:nPhi]
			for i := 0; i < nPhi; i++ {
				in := cur.Instrs[i]
				found := false
				for j, p := range in.PhiPreds {
					if p == prev {
						vals[i] = regs[in.Args[j]]
						found = true
						break
					}
				}
				if !found {
					return nil, fmt.Errorf("%s: b%d: phi has no value for predecessor b%d", f.Name, cur.ID, prev)
				}
			}
			for i := 0; i < nPhi; i++ {
				regs[cur.Instrs[i].Dst] = vals[i]
			}
		}

		for idx := nPhi; idx < len(cur.Instrs); idx++ {
			in := cur.Instrs[idx]
			steps++
			if steps > MaxSteps {
				return nil, fmt.Errorf("%s: step limit exceeded (non-terminating inner loop?)", f.Name)
			}
			if r.OnInstr != nil {
				r.OnInstr(in)
			}
			switch in.Op {
			case ir.OpConst:
				regs[in.Dst] = in.Imm
			case ir.OpCopy:
				regs[in.Dst] = regs[in.Args[0]]
			case ir.OpLoad:
				st := r.array(ctx, in.Arr)
				regs[in.Dst] = st[ir.Wrap(regs[in.Args[0]], in.Arr.Size)]
			case ir.OpStore:
				st := r.array(ctx, in.Arr)
				st[ir.Wrap(regs[in.Args[0]], in.Arr.Size)] = regs[in.Args[1]]
			case ir.OpCall:
				v, err := r.intrinsic(ctx, in, regs)
				if err != nil {
					return nil, err
				}
				if in.Dst != ir.NoReg {
					regs[in.Dst] = v
				}
			case ir.OpSendLS:
				vals := dst
				if cap(vals) >= len(in.Args) {
					vals = vals[:len(in.Args)]
				} else {
					vals = make([]int64, len(in.Args))
				}
				for i, a := range in.Args {
					vals[i] = regs[a]
				}
				sent = vals
			case ir.OpRecvLS:
				if len(recv) != len(in.Dsts) {
					return nil, fmt.Errorf("%s: recvls expects %d slots, got %d", f.Name, len(in.Dsts), len(recv))
				}
				for i, d := range in.Dsts {
					regs[d] = recv[i]
				}
			case ir.OpJmp:
				prev, cur = cur.ID, f.Blocks[in.Targets[0]]
				goto nextBlock
			case ir.OpBr:
				t := in.Targets[1]
				if regs[in.Args[0]] != 0 {
					t = in.Targets[0]
				}
				prev, cur = cur.ID, f.Blocks[t]
				goto nextBlock
			case ir.OpSwitch:
				v := regs[in.Args[0]]
				t := in.Targets[len(in.Targets)-1]
				for i, c := range in.Cases {
					if v == c {
						t = in.Targets[i]
						break
					}
				}
				prev, cur = cur.ID, f.Blocks[t]
				goto nextBlock
			case ir.OpRet:
				return sent, nil
			default:
				var b int64
				switch {
				case in.Op.IsBinary():
					b = regs[in.Args[1]]
				case !in.Op.IsUnary():
					return nil, fmt.Errorf("%s: b%d: cannot evaluate %s", f.Name, cur.ID, in)
				}
				regs[in.Dst] = ir.Eval(in.Op, regs[in.Args[0]], b)
			}
		}
		return nil, fmt.Errorf("%s: b%d fell off the end without a terminator", f.Name, cur.ID)
	nextBlock:
	}
}

// intrinsic dispatches an OpCall.
func (r *Runner) intrinsic(ctx *IterCtx, in *ir.Instr, regs []int64) (int64, error) {
	arg := func(i int) int64 { return regs[in.Args[i]] }
	w := r.World
	switch in.Call {
	case "pkt_rx":
		var p []byte
		if ctx.HasPending {
			// The runtime pre-pulled this iteration's packet at the head
			// stage; consume it without touching the shared stream.
			p, ctx.Pending, ctx.HasPending = ctx.Pending, nil, false
		} else if !r.RxFromCtx {
			p = w.rx()
		}
		if p == nil {
			ctx.Pkt, ctx.HasPkt = nil, false
			return -1, nil
		}
		buf := make([]byte, len(p))
		copy(buf, p)
		ctx.Pkt, ctx.HasPkt = buf, true
		return int64(len(buf)), nil
	case "pkt_len":
		return int64(len(ctx.Pkt)), nil
	case "pkt_byte":
		return ir.PktByte(ctx.Pkt, arg(0)), nil
	case "pkt_word":
		return ir.PktWord(ctx.Pkt, arg(0)), nil
	case "pkt_setbyte":
		ir.SetPktByte(ctx.Pkt, arg(0), arg(1))
		return 0, nil
	case "pkt_setword":
		ir.SetPktWord(ctx.Pkt, arg(0), arg(1))
		return 0, nil
	case "pkt_send":
		pkt := make([]byte, len(ctx.Pkt))
		copy(pkt, ctx.Pkt)
		r.emit(ctx, Event{Kind: EvSend, Val: arg(0), Pkt: pkt})
		return 0, nil
	case "pkt_drop":
		r.emit(ctx, Event{Kind: EvDrop})
		return 0, nil
	case "meta_get":
		return ctx.Meta[ir.Wrap(arg(0), len(ctx.Meta))], nil
	case "meta_set":
		ctx.Meta[ir.Wrap(arg(0), len(ctx.Meta))] = arg(1)
		return 0, nil
	case "rt_lookup":
		if w.RT4 == nil {
			return -1, nil
		}
		return w.RT4(arg(0)), nil
	case "rt6_lookup":
		if w.RT6 == nil {
			return -1, nil
		}
		return w.RT6(arg(0), arg(1)), nil
	case "csum_fold":
		return ir.CsumFold(arg(0)), nil
	case "hash_crc":
		return ir.HashCRC(arg(0)), nil
	case "q_put":
		q := arg(0)
		w.Queues[q] = append(w.Queues[q], arg(1))
		return 0, nil
	case "q_get":
		q := arg(0)
		vs := w.Queues[q]
		if len(vs) == 0 {
			return -1, nil
		}
		v := vs[0]
		w.Queues[q] = vs[1:]
		return v, nil
	case "q_len":
		return int64(len(w.Queues[arg(0)])), nil
	case "trace":
		r.emit(ctx, Event{Kind: EvTrace, Val: arg(0)})
		return 0, nil
	}
	return 0, fmt.Errorf("unknown intrinsic %q", in.Call)
}

// RunSequential executes iters iterations of prog against world and returns
// the observable trace.
func RunSequential(prog *ir.Program, world *World, iters int) ([]Event, error) {
	if prog == nil {
		return nil, errs.ErrNilProgram
	}
	if world == nil {
		return nil, errs.ErrNilWorld
	}
	r := NewRunner(prog, world)
	ctx := NewIterCtx()
	for i := 0; i < iters; i++ {
		if _, err := r.RunIteration(ctx, nil); err != nil {
			return nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		ctx.Reset()
	}
	return world.Trace, nil
}

// RunPipeline executes iters iterations through the given pipeline stages
// (run to completion per iteration, which preserves the sequential trace
// order and is therefore the correctness oracle for partitioning). All
// stages share the world and one pre-populated persistent store.
func RunPipeline(stages []*ir.Program, world *World, iters int) ([]Event, error) {
	if err := CheckPipeline(stages, world); err != nil {
		return nil, err
	}
	c := Chain[*Runner]{Stages: NewStageRunners(stages, world)}
	if err := c.Run(iters); err != nil {
		return nil, err
	}
	return world.Trace, nil
}

// CheckPipeline rejects what no sequential runner can run: no stages, a nil
// stage, a nil world.
func CheckPipeline(stages []*ir.Program, world *World) error {
	if len(stages) == 0 {
		return errs.ErrNoStages
	}
	for i, s := range stages {
		if s == nil {
			return fmt.Errorf("stage %d: %w", i, errs.ErrNilStage)
		}
	}
	if world == nil {
		return errs.ErrNilWorld
	}
	return nil
}

// Stage is one pipeline stage as a Chain runs it: a Runner of either
// backend. RunIterationInto returns the outgoing live set in dst when dst
// has room for it, else in a fresh slice — never in recv.
type Stage interface {
	RunIterationInto(ctx *IterCtx, recv, dst []int64) ([]int64, error)
}

// Chain runs pipeline stages back to back: each iteration to completion
// through every stage before the next starts, the order that reproduces the
// sequential trace. Every sequential runner of stages — RunPipeline here and
// in internal/exec, the facade's Pipeline.Run, the npsim simulators,
// experiments.MeasureDynamic — is a Chain. The live set passes between two
// buffers the chain owns, and one IterCtx is Reset after every iteration, so
// the steady state allocates nothing the stages do not.
type Chain[S Stage] struct {
	Stages []S
	// After, when set, is called once stage k has run iteration i (counted
	// from the chain's first).
	After func(i, k int)

	ctx  IterCtx
	live [2][]int64
	n    int
}

// Run runs the next iters iterations.
func (c *Chain[S]) Run(iters int) error {
	for range iters {
		var recv []int64
		for k, s := range c.Stages {
			buf := &c.live[k&1]
			out, err := s.RunIterationInto(&c.ctx, recv, *buf)
			if err != nil {
				return fmt.Errorf("iteration %d, stage %d: %w", c.n, k, err)
			}
			if cap(out) > cap(*buf) {
				*buf = out // outgrew the buffer: keep the larger one
			}
			if c.After != nil {
				c.After(c.n, k)
			}
			recv = out
		}
		c.ctx.Reset()
		c.n++
	}
	return nil
}
