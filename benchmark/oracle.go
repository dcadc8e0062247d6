package main

import (
	"fmt"
	"hash/maphash"

	"repro"
	"repro/internal/interp"
	"repro/internal/netbench"
)

// traceHash folds an event trace into one order-sensitive hash of (kind,
// value, packet bytes), so a million-packet trace is compared with the
// oracle's without either being resident twice. The seed is per process:
// hashes are only ever compared within one run.
type traceHash struct {
	sum    uint64
	events int64
}

var hashSeed = maphash.MakeSeed()

const hashPrime = 0x100000001b3

func (h *traceHash) add(evs []repro.Event) {
	s := h.sum
	for i := range evs {
		e := &evs[i]
		s = (s ^ (uint64(e.Kind)<<56 ^ uint64(e.Val))) * hashPrime
		if e.Pkt != nil {
			s = (s ^ maphash.Bytes(hashSeed, e.Pkt)) * hashPrime
		}
	}
	h.sum = s
	h.events += int64(len(evs))
}

// oracleHash runs the unpartitioned program on the reference interpreter
// over the first total packets of the cycle — one sequential runner, so
// persistent state carries across the whole stream exactly as it does in
// a served pipeline — and returns the hash of its trace. The trace is
// folded and dropped every cycle, so it is never resident.
func oracleHash(prog *repro.Program, cyc [][]byte, total int) (traceHash, error) {
	world := netbench.NewWorld(nil)
	r := interp.NewRunner(prog.Clone(), world)
	ctx := interp.NewIterCtx()
	var h traceHash
	for i := 0; i < total; i++ {
		ctx.Pending, ctx.HasPending = cyc[i%len(cyc)], true
		if _, err := r.RunIteration(ctx, nil); err != nil {
			return h, fmt.Errorf("oracle iteration %d: %w", i, err)
		}
		ctx.Reset()
		if len(world.Trace) >= cycleLen {
			h.add(world.Trace)
			world.Trace = world.Trace[:0]
		}
	}
	h.add(world.Trace)
	return h, nil
}

// checkServe is the correctness gate of one served run: the packet ledger
// must balance against what was offered, every offered packet must have
// been delivered, and the trace must hash to the oracle's. It returns how
// many of the offered packets count as failed — the undelivered ones, or
// all of them when the ledger or the trace is wrong.
func checkServe(m *repro.Metrics, offered int64, want traceHash) (failed int64, why string) {
	f := m.Faults
	if in := m.Stages[0].In; f.Accounted() != in || in != offered {
		return offered, fmt.Sprintf("ledger: delivered %d + shed %d + quarantined %d, stage-1 in %d, offered %d",
			f.Delivered, f.Shed, f.Quarantined, in, offered)
	}
	if in := m.Ingest; in != nil && (in.RxPackets != offered || in.Drops != 0 || in.DecodeErrors != 0) {
		return offered, fmt.Sprintf("ingest: rx %d of %d offered, %d drops, %d decode errors",
			in.RxPackets, offered, in.Drops, in.DecodeErrors)
	}
	var got traceHash
	got.add(m.Trace)
	if got != want {
		return offered, fmt.Sprintf("trace hash %016x over %d events, oracle %016x over %d",
			got.sum, got.events, want.sum, want.events)
	}
	if f.Delivered != offered || m.Packets != offered {
		return offered - f.Delivered, fmt.Sprintf("delivered %d (retired %d) of %d offered", f.Delivered, m.Packets, offered)
	}
	return 0, ""
}
