package runtime

// Sharded serving: the flow-hash partitioning layer that runs P replicas
// of (the shardable stages of) a realized pipeline and restores the
// sequential trace order at deterministic merge points.
//
// The shape of a sharded run is a shardPlan: each stage gets a replica
// count of either 1 or P, derived from a static classification of its
// persistent state (classifyStages). Runs of replicated stages form
// sharded segments; the junction between two stages is either aligned
// (same width — a private ring per lane), a scatter (1 -> P: the single
// upstream replica splits each batch by the tokens' shard index), or a
// fan-in (P -> 1: the single downstream replica merges lanes back into
// global packet order). When the first stage itself is replicated, a
// dedicated dispatcher goroutine plays the scatter role at the source.
//
// Determinism argument. Global order is re-established at every fan-in by
// a sequence side-channel: the scatter that feeds a fan-in records the
// shard index of every token in dispatch (= global iteration) order, and
// the fan-in pops exactly the lane the next sequence entry names — each
// lane individually preserves order, so following the sequence reproduces
// the global order without comparing iteration numbers across lanes (and
// without the head-of-line deadlock a min-iter merge hits under flow
// skew, where it would wait on a lane that has nothing in flight).
// Every sharded segment ends in a fan-in: in front of the next unreplicated
// stage, or — when the last stage itself is replicated — in front of the
// stage-less sink unit, the dispatcher's mirror, which merges the lanes
// online and is the one goroutine that pushes to the Sink. A quarantine
// inside a segment would leave a hole in its sequence, so the token goes on
// as a tombstone (token.dead) and the fan-in recycles it silently.
// Stages classified as cross-flow run unsharded behind a fan-in, therefore
// observe packets in exact global order and mutate their state identically
// to the sequential oracle — which is why the merged trace stays
// byte-identical even for stateful pipelines like the QM and Scheduler PPSes.

import (
	"slices"

	"repro/internal/costmodel"
	"repro/internal/ir"
)

// MaxShards bounds the accepted shard count (pipeline replica width).
const MaxShards = 64

// shardSeed seeds the shard-index reduction so raw flow keys do not map
// onto replicas through their low bits alone.
const shardSeed = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 finalizer — the seeded fast integer hash the
// shard layer runs flow keys through before reducing to a lane index.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// shardOf reduces a flow key to a lane in [0, p) by multiply-shift on the
// mixed high bits (avoids the modulo and its low-bit bias).
func shardOf(key uint64, p int) int {
	h := mix64(key^shardSeed) >> 32
	return int(h * uint64(p) >> 32)
}

// DefaultShardKey is the shard key used when none is configured: an
// FNV-1a hash of the whole packet. It spreads arbitrary traffic evenly
// but is NOT flow-affine (two packets of one flow that differ anywhere —
// an IPv4 identification field, a TTL — may land on different replicas).
// That is sound for pipelines without flow-keyed state, because the merge
// restores global packet order regardless of lane assignment; pipelines
// whose persistent state is partitioned by flow must configure a real
// flow key (Config.ShardKey; netbench.FlowKey for the benchmark frames).
func DefaultShardKey(pkt []byte) uint64 {
	k := uint64(0xcbf29ce484222325)
	for _, b := range pkt {
		k = (k ^ uint64(b)) * 0x100000001b3
	}
	return k
}

// stateClass classifies one stage's persistent state for sharding.
type stateClass uint8

const (
	// classStateless: no persistent writes — replicas share everything.
	classStateless stateClass = iota
	// classFlowKeyed: every access to every written persistent array is
	// indexed by a packet-derived value; replicas run with forked copies
	// of those arrays, which partitions the table by flow as long as the
	// configured shard key refines the index (the flow-key contract).
	classFlowKeyed
	// classCrossFlow: persistent state whose access pattern cannot be
	// attributed to the packet (queues, counters, schedulers); the stage
	// must run unsharded so it observes the global packet order.
	classCrossFlow
)

// stageShape is one stage's classification plus the persistent arrays a
// flow-keyed replica must fork.
type stageShape struct {
	class    stateClass
	flowArrs []*ir.Array
}

// Register taint classes for the packet-derivation dataflow. The lattice
// is ordered (join = max): a value is regBot until a def is seen, regConst
// if built only from constants, regPkt if at least one packet byte flowed
// in (and nothing worse), regOther if anything non-packet-derived did —
// loads, queue results, metadata, route lookups.
const (
	regBot uint8 = iota
	regConst
	regPkt
	regOther
)

// classifyStages derives each stage's shardability from its IR. Register
// classes propagate across cuts through the live-set transmissions: stage
// k's OpSendLS argument classes seed stage k+1's OpRecvLS destinations, so
// an index computed from packet bytes upstream still counts as
// packet-derived downstream. The rules are conservative — anything not
// provably packet-derived (phi of a loop counter, a queue read, metadata)
// demotes to regOther, and any written persistent array with a
// non-packet-derived access index makes the whole stage cross-flow.
func classifyStages(stages []*ir.Program) []stageShape {
	shapes := make([]stageShape, len(stages))
	var inSlots []uint8 // classes of the live-set slots entering this stage
	for s, prog := range stages {
		cls, outSlots := classifyRegs(prog, inSlots)
		shapes[s] = classifyStage(prog, cls)
		inSlots = outSlots
	}
	return shapes
}

// classifyRegs runs the packet-derivation fixpoint over one stage and
// returns the register classes plus the classes of the slots it sends to
// the next stage. A call's result is packet-derived when the call touches
// the packet and nothing else, the join of its arguments when it is pure,
// and regOther otherwise, as a load's is (costmodel.Use's PktVal and Mix).
func classifyRegs(prog *ir.Program, inSlots []uint8) ([]uint8, []uint8) {
	cls := make([]uint8, prog.Func.NumRegs)
	join := func(reg int, c uint8) bool {
		if reg < 0 || c <= cls[reg] {
			return false
		}
		cls[reg] = c
		return true
	}
	argJoin := func(args []int) uint8 {
		c := regConst
		for _, a := range args {
			if cls[a] > c {
				c = cls[a]
			}
		}
		return c
	}
	for changed := true; changed; {
		changed = false
		for _, b := range prog.Func.Blocks {
			for _, in := range b.Instrs {
				switch {
				case in.Op == ir.OpConst:
					changed = join(in.Dst, regConst) || changed
				case in.Op == ir.OpCopy, in.Op == ir.OpPhi, in.Op.IsBinary(), in.Op.IsUnary():
					changed = join(in.Dst, argJoin(in.Args)) || changed
				case in.Op == ir.OpLoad, in.Op == ir.OpCall:
					switch u := costmodel.UseOf(in); {
					case u.PktVal:
						changed = join(in.Dst, regPkt) || changed
					case u.Mix:
						changed = join(in.Dst, argJoin(in.Args)) || changed
					default:
						changed = join(in.Dst, regOther) || changed
					}
				case in.Op == ir.OpRecvLS:
					for i, d := range in.Dsts {
						c := regOther
						if i < len(inSlots) {
							c = inSlots[i]
						}
						changed = join(d, c) || changed
					}
				}
			}
		}
	}
	var outSlots []uint8
	for _, b := range prog.Func.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpSendLS {
				continue
			}
			if outSlots == nil {
				outSlots = make([]uint8, len(in.Args))
			}
			for i, a := range in.Args {
				if i < len(outSlots) && cls[a] > outSlots[i] {
					outSlots[i] = cls[a]
				}
			}
		}
	}
	return cls, outSlots
}

// classifyStage folds one stage's uses of persistent state over the
// register classes into its shape. A persistent channel (a queue) is shared
// ordered state, inherently cross-flow.
func classifyStage(prog *ir.Program, cls []uint8) stageShape {
	var written []*ir.Array
	indexOK := map[int]bool{} // array ID -> every access index so far packet-derived
	for _, b := range prog.Func.Blocks {
		for _, in := range b.Instrs {
			u := costmodel.UseOf(in)
			switch {
			case u.Chan != "":
				return stageShape{class: classCrossFlow}
			case u.Arr == nil:
				continue
			}
			ok, seen := indexOK[u.Arr.ID]
			indexOK[u.Arr.ID] = (ok || !seen) && cls[in.Args[0]] == regPkt
			if u.Write && !slices.ContainsFunc(written, func(a *ir.Array) bool { return a.ID == u.Arr.ID }) {
				written = append(written, u.Arr)
			}
		}
	}
	for _, a := range written {
		if !indexOK[a.ID] {
			return stageShape{class: classCrossFlow}
		}
	}
	if len(written) > 0 {
		return stageShape{class: classFlowKeyed, flowArrs: written}
	}
	return stageShape{class: classStateless}
}

// shardPlan is the realized topology of one sharded serve: per-stage
// replica counts plus the junction bookkeeping the goroutines wire up
// from.
type shardPlan struct {
	p    int   // configured shard count
	reps []int // per-stage replica count: 1 or p

	// seqAt[k+1] is the sequence stream of the junction at cut k — recorded
	// by the scatter that opens a sharded segment, consumed by the fan-in
	// that closes it — or -1 at an aligned cut. Cut -1 is the dispatcher's
	// lane feed in front of stage 0, cut d-1 the sink's fan-in behind the
	// last stage: source and sink are the unreplicated ends of every plan.
	seqAt []int
	nSeqs int
}

// newShardPlan assigns replica counts and numbers the sharded segments.
// Flow-keyed stages shard only when the caller configured an explicit
// shard key (haveKey): partitioned tables are only correct when the lane
// assignment refines the table index, which the default whole-packet hash
// does not promise.
func newShardPlan(shapes []stageShape, p int, haveKey bool) *shardPlan {
	d := len(shapes)
	pl := &shardPlan{p: p, reps: make([]int, d), seqAt: make([]int, d+1)}
	for s := range pl.reps {
		pl.reps[s] = 1
		if p > 1 && (shapes[s].class == classStateless || shapes[s].class == classFlowKeyed && haveKey) {
			pl.reps[s] = p
		}
	}
	for k := -1; k < d; k++ {
		pl.seqAt[k+1] = -1
		switch a, b := pl.repsAt(k), pl.repsAt(k+1); {
		case a < b: // scatter: opens segment nSeqs
			pl.seqAt[k+1] = pl.nSeqs
		case a > b: // the fan-in that closes it
			pl.seqAt[k+1] = pl.nSeqs
			pl.nSeqs++
		}
	}
	return pl
}

// repsAt is reps with the two ends on: the source before stage 0 and the
// sink after the last stage are one goroutine each.
func (pl *shardPlan) repsAt(s int) int {
	if s < 0 || s >= len(pl.reps) {
		return 1
	}
	return pl.reps[s]
}

// sharded reports whether any stage actually runs replicated.
func (pl *shardPlan) sharded() bool {
	for _, r := range pl.reps {
		if r > 1 {
			return true
		}
	}
	return false
}

// width returns the effective shard width the run executes with: p when
// anything sharded, 1 otherwise (e.g. a fully cross-flow pipeline).
func (pl *shardPlan) width() int {
	if pl.sharded() {
		return pl.p
	}
	return 1
}

// lanes is the ring-lane count of cut k: the wider side's replica count.
func (pl *shardPlan) lanes(k int) int {
	return max(pl.repsAt(k), pl.repsAt(k+1))
}
