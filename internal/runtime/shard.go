package runtime

// Sharded serving: the flow-hash partitioning layer that runs P replicas
// of (the stateless stages of) a realized pipeline and restores the
// sequential trace order at deterministic merge points.
//
// The shape of a sharded run is a shardPlan: each stage gets a replica
// count of either 1 or P — 1 when it keeps state between iterations
// (serialStages), the rule exec batches by. Runs of replicated stages form
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
// Serial stages run unsharded behind a fan-in, therefore observe packets in
// exact global order and mutate their state identically to the sequential
// oracle — which is why the merged trace stays byte-identical even for
// stateful pipelines like the QM and Scheduler PPSes, under any shard key.

import (
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
// but is not flow-affine (two packets of one flow that differ anywhere —
// an IPv4 identification field, a TTL — may land on different replicas).
// Any key is sound: a key only balances load, because replicated stages
// keep no state and the merge restores global packet order regardless of
// lane assignment.
func DefaultShardKey(pkt []byte) uint64 {
	k := uint64(0xcbf29ce484222325)
	for _, b := range pkt {
		k = (k ^ uint64(b)) * 0x100000001b3
	}
	return k
}

// serialStages reports, per stage, whether it keeps state between
// iterations (some instruction carries state: costmodel.Use.Carries) — the
// rule exec's Lowered.Serial applies to the lowered program, here read off
// the IR. A serial stage runs as one replica behind a fan-in and so sees
// packets in global order; every other stage replicates on the one shared
// store, where it only reads tables no stage writes. The plan therefore
// never depends on the shard key.
func serialStages(stages []*ir.Program) []bool {
	serial := make([]bool, len(stages))
	for s, prog := range stages {
		for _, b := range prog.Func.Blocks {
			for _, in := range b.Instrs {
				if costmodel.UseOf(in).Carries() != "" {
					serial[s] = true
				}
			}
		}
	}
	return serial
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

// newShardPlan assigns replica counts and numbers the sharded segments: a
// serial stage runs once, every other stage p ways.
func newShardPlan(serial []bool, p int) *shardPlan {
	d := len(serial)
	pl := &shardPlan{p: p, reps: make([]int, d), seqAt: make([]int, d+1)}
	for s := range pl.reps {
		pl.reps[s] = 1
		if p > 1 && !serial[s] {
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
// anything sharded, 1 otherwise (every stage keeps state).
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
