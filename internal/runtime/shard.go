package runtime

// Sharded serving: the layer that runs P replicas of (the stateless stages
// of) a realized pipeline and keeps the sequential trace order.
//
// The shape of a sharded run is a shardPlan: each stage gets a replica
// count of either 1 or P — 1 when it keeps state between iterations
// (serialStages), the rule exec batches by. Runs of replicated stages form
// sharded segments; the junction between two stages is either aligned
// (same width — a private ring per lane), a scatter (1 -> P: the single
// upstream replica sends batch k whole to lane k mod P), or a fan-in
// (P -> 1: the single downstream replica reads batch k from lane k mod P).
// When the first stage itself is replicated, a dedicated dispatcher
// goroutine plays the scatter role at the source.
//
// Determinism argument. Each lane is FIFO, and every unit inside a segment
// passes on each batch it receives — also one that quarantine emptied — so
// the scatter that opens a segment and the fan-in that closes it count the
// same batches: the fan-in's k-th batch is the scatter's k-th, and it gets
// back the exact dispatch order without comparing iteration numbers. Nor can
// it deadlock: the scatter holds only the one batch it is pushing, and the
// fan-in waits only on the lane that holds the next batch in the rotation,
// which the replicas upstream of it can always deliver. Every sharded
// segment ends in a fan-in: in front of the next unreplicated stage, or —
// when the last stage itself is replicated — in front of the stage-less sink
// unit, the dispatcher's mirror, which is the one goroutine that pushes to
// the Sink. Serial stages run unsharded behind a fan-in, therefore observe
// packets in exact global order and mutate their state identically to the
// sequential oracle — which is why the merged trace stays byte-identical
// even for stateful pipelines like the QM and Scheduler PPSes. Replicas keep
// no state, so which batch a replica takes only balances load.

import (
	"repro/internal/costmodel"
	"repro/internal/ir"
)

// MaxShards bounds the accepted shard count (pipeline replica width).
const MaxShards = 64

// serialStages reports, per stage, whether it keeps state between
// iterations (some instruction carries state: costmodel.Use.Carries) — the
// rule exec's Lowered.Serial applies to the lowered program, here read off
// the IR. A serial stage runs as one replica behind a fan-in and so sees
// packets in global order; every other stage replicates on the one shared
// store, where it only reads tables no stage writes.
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
// replica counts, from which the goroutines wire up their rings.
type shardPlan struct {
	p    int   // configured shard count
	reps []int // per-stage replica count: 1 or p
}

// newShardPlan assigns replica counts: a serial stage runs once, every
// other stage p ways.
func newShardPlan(serial []bool, p int) *shardPlan {
	pl := &shardPlan{p: p, reps: make([]int, len(serial))}
	for s := range pl.reps {
		pl.reps[s] = 1
		if p > 1 && !serial[s] {
			pl.reps[s] = p
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
