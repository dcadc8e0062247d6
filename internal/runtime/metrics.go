package runtime

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/interp"
)

// StageStats are one stage's counters, frozen into plain fields. While a
// serve runs, each stage goroutine maintains them in an atomic probe
// (single writer, any readers), which is what makes Live.Snapshot safe to
// call mid-run; Serve converts the probes into this exported form after
// the final join, and Snapshot produces the same shape at any instant.
type StageStats struct {
	// Stage is the 1-based stage index.
	Stage int
	// FusedInto is non-zero when the cut between this stage and its
	// predecessor was not realized: the stage runs inside the program that
	// begins at stage FusedInto, which books the work of every stage it
	// covers; every counter here is zero and Replicas is that program's.
	FusedInto int
	// In and Out count iterations received from upstream and forwarded
	// downstream. For the head stage, In counts packets pulled from the
	// Source; for the sink stage, Out counts iterations retired.
	In, Out int64
	// Stalls counts ring-full backpressure events: sends that found the
	// outgoing ring at capacity and had to wait for the consumer.
	Stalls int64
	// Quarantined counts packets this stage removed from the pipeline
	// after a panic.
	Quarantined int64
	// Busy is the time spent executing iterations (the ns/stage counter),
	// excluding ring waits and, at the head, the time blocked on the
	// Source. Under sharding it is the sum across replicas.
	Busy time.Duration
	// Spins and Parks count blocked ring waits by how they resolved:
	// still in the ring's spin/yield phase, or after parking on its
	// notifier.
	Spins, Parks int64
	// SpinWait and ParkWait split the stage's total blocked-on-ring time
	// by the same phases; SpinWait + ParkWait is the stage's whole
	// handoff wait. TxWait and RxWait split the same total the other way:
	// time blocked pushing into a full downstream ring — at the stage that
	// pushes to the Sink, the time inside Sink.Push, counted as parked —
	// versus time blocked on an empty upstream ring.
	SpinWait, ParkWait time.Duration
	TxWait, RxWait     time.Duration
	// LostWakeups counts ring parks that ended by the 1ms backstop timer
	// although the awaited entry (or space) was already there — a wakeup
	// the SPSC handshake should have delivered. Always zero on a healthy
	// ring; anything else is a protocol bug made visible.
	LostWakeups int64
	// BodyPanics counts panics out of a stage body itself (the fault hooks
	// run before it, under their own recover): a bug in the stage program
	// or the backend, which cannot be pinned on one packet of the batch the
	// body was running, so the whole group is quarantined. Always zero on a
	// healthy run.
	BodyPanics int64
	// Replicas is the number of concurrent replicas the stage ran with: 1
	// unless the serve was sharded and the stage keeps no state, in which
	// case it is the shard width and the counters above are aggregates.
	Replicas int
	// occupancy sampling of the inbound ring, taken at each receive.
	occSum, occSamples int64
}

// Add folds o's counters into s: another replica of the same stage, or the
// dispatcher in front of stage 1 (the sink unit behind the last). Stage,
// FusedInto and Replicas are the caller's.
func (s *StageStats) Add(o StageStats) {
	s.In += o.In
	s.Out += o.Out
	s.Stalls += o.Stalls
	s.Quarantined += o.Quarantined
	s.Busy += o.Busy
	s.Spins += o.Spins
	s.Parks += o.Parks
	s.SpinWait += o.SpinWait
	s.ParkWait += o.ParkWait
	s.TxWait += o.TxWait
	s.RxWait += o.RxWait
	s.LostWakeups += o.LostWakeups
	s.BodyPanics += o.BodyPanics
	s.occSum += o.occSum
	s.occSamples += o.occSamples
}

// maxFaultRecords bounds each lane's record buffer — one per stage replica —
// so a pathological run (every packet quarantined) cannot grow memory
// without bound; the counters keep exact totals past the cap.
const maxFaultRecords = 4096

// FaultRecord describes the fate of one packet that did not complete the
// pipeline.
type FaultRecord struct {
	// Iter is the packet's iteration index (assigned at the head stage in
	// source order, 0-based).
	Iter int64
	// Stage is the 1-based stage at which the disposition happened.
	Stage int
	// Disposition is "quarantined", the one way a packet is lost inside
	// the pipeline.
	Disposition string
	// Reason is a human-readable cause; for quarantines it embeds the
	// sentinel error text (errs.ErrStagePanic).
	Reason string
}

// FaultReport is the serve run's loss accounting: every packet pulled from
// the source is either delivered at the sink or quarantined by the recovery
// machinery — Delivered + Quarantined equals the head stage's In count on
// every run no fatal error ended, a canceled one included (a cancel stops
// the head and drains the rest).
type FaultReport struct {
	Delivered int64
	// Shed is always zero: a full ring blocks, it never drops. It stays for
	// the readers of the ledger and of String's rendering.
	Shed        int64
	Quarantined int64
	// Records lists the affected packets in iteration order (capped at
	// maxFaultRecords per stage replica; the counters above are always
	// exact).
	Records []FaultRecord
}

// Accounted is Delivered + Shed + Quarantined (Shed being zero): the
// packets whose fate is known. It equals the packets pulled from the source
// unless a fatal error tore the run down, which discards what was in
// flight.
func (r *FaultReport) Accounted() int64 { return r.Delivered + r.Shed + r.Quarantined }

// String renders the report deterministically — counters first, then the
// records in iteration order — which is what the golden-fixture tests
// diff against.
func (r *FaultReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "delivered %d  shed %d  quarantined %d\n", r.Delivered, r.Shed, r.Quarantined)
	for _, rec := range r.Records {
		fmt.Fprintf(&b, "  iter %-4d stage %d  %-11s %s\n", rec.Iter, rec.Stage, rec.Disposition, rec.Reason)
	}
	return b.String()
}

// MeanOccupancy is the average inbound-ring occupancy (entries queued
// behind the one being received) sampled at each receive; 0 for the head
// stage, which has no inbound ring.
func (s *StageStats) MeanOccupancy() float64 {
	if s.occSamples == 0 {
		return 0
	}
	return float64(s.occSum) / float64(s.occSamples)
}

// NsPerIteration is the mean busy time per retired iteration.
func (s *StageStats) NsPerIteration() float64 {
	if s.In == 0 {
		return 0
	}
	return float64(s.Busy.Nanoseconds()) / float64(s.In)
}

// Metrics is what Serve returns: the run's final Snapshot — packets,
// elapsed time, shard width, per-stage counters and ingest counters, taken
// after the last unit joined — plus what only exists once the run is over:
// the observable trace (under the default sink), the sink's flush count and
// the fault ledger.
type Metrics struct {
	Snapshot
	// Trace is the observable event stream in iteration order —
	// byte-identical to the sequential oracle. The trace sink fills it: the
	// default sink of a serve given none. Under any other Sink it is nil.
	Trace []interp.Event
	// Flushed is what the Sink's Close reported: the events it has put where
	// they go (len(Trace) under the default sink).
	Flushed int64
	// Faults is the run's loss accounting (always non-nil): delivered and
	// quarantined packets, with per-packet records. On a clean run every
	// counter except Delivered is zero.
	Faults *FaultReport
}

// String renders a compact human-readable summary.
func (m *Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "served %d packets in %v (%.0f pkt/s)",
		m.Packets, m.Elapsed.Round(time.Microsecond), m.PacketsPerSecond())
	if m.Shards > 1 {
		fmt.Fprintf(&b, " across %d shards", m.Shards)
	}
	b.WriteString("\n")
	writeStageLines(&b, m.Stages)
	if f := m.Faults; f != nil && f.Quarantined > 0 {
		fmt.Fprintf(&b, "  faults: %s", f.String())
	}
	m.Ingest.writeLine(&b)
	return b.String()
}
