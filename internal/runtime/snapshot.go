package runtime

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/spsc"
)

// stageProbe is the live form of one stage replica's counters: each field
// is an atomic written by the owning goroutine and readable at any moment
// by Live.Snapshot, the registry's computed gauges, and the periodic
// logger. txWait accumulates ring-full (transmit-side) blocked time,
// rxWait ring-empty (receive-side) blocked time, each split into the
// spin/park phases by the ring's wait machinery. The padding keeps
// neighboring replicas' probes off one cache line, so the single-writer
// updates never false-share.
type stageProbe struct {
	in, out, stalls    atomic.Int64
	quarantined        atomic.Int64
	busyNs, bodyPanics atomic.Int64
	occSum, occSamples atomic.Int64
	txWait, rxWait     spsc.WaitCounters
	_                  [48]byte
}

// stats converts the probe's current values into the exported snapshot
// form (fault records are not included — they stay goroutine-local until
// the final join).
func (p *stageProbe) stats(stage int) StageStats {
	return StageStats{
		Stage:       stage,
		In:          p.in.Load(),
		Out:         p.out.Load(),
		Stalls:      p.stalls.Load(),
		Quarantined: p.quarantined.Load(),
		Busy:        time.Duration(p.busyNs.Load()),
		Spins:       p.txWait.Spins.Load() + p.rxWait.Spins.Load(),
		Parks:       p.txWait.Parks.Load() + p.rxWait.Parks.Load(),
		SpinWait:    time.Duration(p.txWait.SpinNs.Load() + p.rxWait.SpinNs.Load()),
		ParkWait:    time.Duration(p.txWait.ParkNs.Load() + p.rxWait.ParkNs.Load()),
		TxWait:      time.Duration(p.txWait.SpinNs.Load() + p.txWait.ParkNs.Load()),
		RxWait:      time.Duration(p.rxWait.SpinNs.Load() + p.rxWait.ParkNs.Load()),
		LostWakeups: p.txWait.LostWakeups.Load() + p.rxWait.LostWakeups.Load(),
		BodyPanics:  p.bodyPanics.Load(),
		occSum:      p.occSum.Load(),
		occSamples:  p.occSamples.Load(),
	}
}

// Live is a handle on an in-flight serve run: a set of per-replica atomic
// probes that can be snapshotted at any moment — mid-serve, from any
// goroutine, race-free — without perturbing the stage goroutines beyond
// their ordinary atomic counter updates. Probes are flattened stage-major
// over the served stages (offs[s] is served stage s's first replica); disp
// is the extra probe of the dispatcher when the first stage is
// replicated, sink that of the sink unit when the last one is. Reports are per cut stage: first (Layout.first) says which cut
// stage each served stage begins at. Serve publishes it through
// Config.OnLive before the first packet moves; repro.Pipeline.Snapshot is
// the public face.
type Live struct {
	start      time.Time
	reps       []int
	offs       []int
	first      []int
	probes     []stageProbe
	disp, sink *stageProbe
	shards     int
	packets    atomic.Int64
	done       atomic.Bool
	elapsedNs  atomic.Int64
	// ingest snapshots the feeding source's boundary counters (nil when
	// the run is fed by an in-process source with nothing to report).
	ingest func() IngestStats
}

// newLive builds the probe set for a run with the given per-served-stage
// replica counts and cut-stage numbering (Layout.first); the run stamps
// start when its clock starts.
func newLive(reps, first []int, shards int) *Live {
	offs := make([]int, len(reps))
	n := 0
	for s, r := range reps {
		offs[s] = n
		n += r
	}
	l := &Live{reps: reps, offs: offs, first: first, probes: make([]stageProbe, n), shards: shards}
	if reps[0] > 1 {
		l.disp = &stageProbe{}
	}
	if reps[len(reps)-1] > 1 {
		l.sink = &stageProbe{}
	}
	return l
}

// degree is the number of cut stages reported on.
func (l *Live) degree() int { return l.first[len(l.reps)] - 1 }

// probe is served stage s, replica j's counter block.
func (l *Live) probe(s, j int) *stageProbe { return &l.probes[l.offs[s]+j] }

// stageStats reports cut stage k (0-based): the counters of the served stage
// that begins there, aggregated across its replicas, or — for a stage folded
// into an earlier one's program — an entry of zero counters naming that
// stage. When a dispatcher paces the source, stage 1's In is the
// dispatcher's pull count (every packet that left the source) and its stall
// count folds in the dispatcher's — preserving the ledger invariant
// Delivered + Quarantined == Stages[0].In at any shard width. The sink unit
// mirrors it: the last stage's Out is what the sink unit retired,
// and the time it spent in the Sink is that stage's TxWait.
func (l *Live) stageStats(k int) StageStats {
	s := sort.SearchInts(l.first, k+2) - 1 // the served stage standing for cut stage k+1
	if l.first[s] != k+1 {
		return StageStats{Stage: k + 1, FusedInto: l.first[s], Replicas: l.reps[s]}
	}
	agg := l.probe(s, 0).stats(k + 1)
	for j := 1; j < l.reps[s]; j++ {
		agg.Add(l.probe(s, j).stats(k + 1))
	}
	agg.Replicas = l.reps[s]
	if s == 0 && l.disp != nil {
		// The dispatcher's pulls replace the replicas' receives as stage
		// 1's In; its lane deliveries are no stage's output.
		d := l.disp.stats(1)
		agg.In, d.Out = 0, 0
		agg.Add(d)
	}
	if s == len(l.reps)-1 && l.sink != nil {
		k := l.sink.stats(k + 1)
		agg.Out, k.In = 0, 0
		agg.Add(k)
	}
	return agg
}

// finish freezes the elapsed clock; Serve calls it after the final join.
func (l *Live) finish(elapsed time.Duration) {
	l.elapsedNs.Store(int64(elapsed))
	l.done.Store(true)
}

// Snapshot captures the run's counters at this instant. Safe to call at
// any time from any goroutine, including while the pipeline is serving;
// counters lag the stage goroutines by at most one batch. Returns nil on
// a nil receiver.
func (l *Live) Snapshot() *Snapshot {
	if l == nil {
		return nil
	}
	s := &Snapshot{
		Running: !l.done.Load(),
		Packets: l.packets.Load(),
		Shards:  l.shards,
		Stages:  make([]StageStats, l.degree()),
	}
	if s.Running {
		s.Elapsed = time.Since(l.start)
	} else {
		s.Elapsed = time.Duration(l.elapsedNs.Load())
	}
	for k := range s.Stages {
		s.Stages[k] = l.stageStats(k)
	}
	if l.ingest != nil {
		v := l.ingest()
		s.Ingest = &v
	}
	return s
}

// Snapshot is a point-in-time view of a serve run's counters. It may be
// taken while the run is still moving; the one taken after the final join
// is the Snapshot that Metrics embeds.
type Snapshot struct {
	// Running reports whether the serve was still in flight when the
	// snapshot was taken.
	Running bool
	// Elapsed is time since the serve started (frozen at the final value
	// once the run completes).
	Elapsed time.Duration
	// Packets counts iterations retired at the sink so far.
	Packets int64
	// Shards is the effective shard width of the run (1 when unsharded).
	Shards int
	// Stages holds the per-stage counters at snapshot time, aggregated
	// across each stage's replicas.
	Stages []StageStats
	// Ingest holds the feeding source's boundary counters when the run
	// is fed through the ingest front end; nil otherwise.
	Ingest *IngestStats
}

// PacketsPerSecond is the mean throughput up to the snapshot instant.
func (s *Snapshot) PacketsPerSecond() float64 {
	if s == nil || s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Packets) / s.Elapsed.Seconds()
}

// Line renders the snapshot as one compact log line — what the periodic
// logger emits.
func (s *Snapshot) Line() string {
	if s == nil {
		return "serve: (no run)"
	}
	var b strings.Builder
	state := "done"
	if s.Running {
		state = "live"
	}
	fmt.Fprintf(&b, "serve %s +%v: %d pkts (%.0f pkt/s)", state,
		s.Elapsed.Round(time.Millisecond), s.Packets, s.PacketsPerSecond())
	if s.Shards > 1 {
		fmt.Fprintf(&b, " P=%d", s.Shards)
	}
	if s.Ingest != nil {
		fmt.Fprintf(&b, " | rx=%d", s.Ingest.RxPackets)
		if e := s.Ingest.Drops + s.Ingest.DecodeErrors; e > 0 {
			fmt.Fprintf(&b, " rxerr=%d", e)
		}
	}
	for _, st := range s.Stages {
		if st.FusedInto > 0 {
			fmt.Fprintf(&b, " | s%d in s%d", st.Stage, st.FusedInto)
			continue
		}
		fmt.Fprintf(&b, " | s%d in=%d out=%d stall=%d occ=%.1f", st.Stage, st.In, st.Out, st.Stalls, st.MeanOccupancy())
		if st.Quarantined > 0 {
			fmt.Fprintf(&b, " lost=%d", st.Quarantined)
		}
		if st.LostWakeups > 0 {
			fmt.Fprintf(&b, " lostwake=%d", st.LostWakeups)
		}
		if st.BodyPanics > 0 {
			fmt.Fprintf(&b, " bodypanic=%d", st.BodyPanics)
		}
	}
	return b.String()
}

// String renders the snapshot in the multi-line form of Metrics.String.
func (s *Snapshot) String() string {
	if s == nil {
		return "(no serve run)\n"
	}
	var b strings.Builder
	state := "completed"
	if s.Running {
		state = "in flight"
	}
	fmt.Fprintf(&b, "serve %s: %d packets in %v (%.0f pkt/s)",
		state, s.Packets, s.Elapsed.Round(time.Microsecond), s.PacketsPerSecond())
	if s.Shards > 1 {
		fmt.Fprintf(&b, " across %d shards", s.Shards)
	}
	b.WriteString("\n")
	s.Ingest.writeLine(&b)
	writeStageLines(&b, s.Stages)
	return b.String()
}

// writeStageLines renders one counter line per stage — the body shared by
// Snapshot.String and Metrics.String.
func writeStageLines(b *strings.Builder, stages []StageStats) {
	for _, st := range stages {
		if st.FusedInto > 0 {
			fmt.Fprintf(b, "  stage %d: fused into stage %d\n", st.Stage, st.FusedInto)
			continue
		}
		fmt.Fprintf(b, "  stage %d: in %d out %d  stalls %d  busy %v  occ %.2f",
			st.Stage, st.In, st.Out, st.Stalls, st.Busy.Round(time.Microsecond), st.MeanOccupancy())
		if st.Replicas > 1 {
			fmt.Fprintf(b, "  x%d", st.Replicas)
		}
		b.WriteString("\n")
	}
}

// writeLine renders the boundary counters as one report line (nothing on
// a nil receiver: the run had no network-facing source).
func (in *IngestStats) writeLine(b *strings.Builder) {
	if in != nil {
		fmt.Fprintf(b, "  ingest: rx %d packets / %d bytes  drops %d  decode errors %d\n",
			in.RxPackets, in.RxBytes, in.Drops, in.DecodeErrors)
	}
}
