package ingest

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"repro/internal/errs"
	"repro/internal/netbench"
)

// GenConfig parameterizes the synthetic traffic generator. The defaults
// (DefaultGenConfig) model a realistic arrival process: heavy-tailed flow
// sizes and bursty on/off arrivals rather than uniform PPS.
type GenConfig struct {
	// Seed fixes the whole packet sequence; two generators with equal
	// configs produce byte-identical streams.
	Seed int64
	// Packets is the total stream length.
	Packets int
	// Flows is the number of concurrently active flows packets are
	// drawn from; a finished flow is replaced by a fresh one.
	Flows int
	// Alpha is the Pareto tail index of flow lengths (packets per
	// flow). Values near 1 are very heavy-tailed; internet flow-size
	// fits commonly land in 1.0–1.5.
	Alpha float64
	// MinFlow is the Pareto scale: the minimum flow length in packets.
	MinFlow int
	// PeakRate is the arrival rate in packets/second during a burst.
	PeakRate float64
	// OnMean and OffMean are the mean burst and idle durations of the
	// two-state on/off (MMPP-style) modulating process.
	OnMean, OffMean time.Duration
	// Paced makes Pull sleep so packets arrive at the modeled
	// wall-clock times. Unpaced (default) delivers as fast as the
	// pipeline pulls, but still cuts Pull batches at burst boundaries
	// so the burst structure survives as batch arrival structure.
	Paced bool
	// Build constructs the packet for (flow, seq): flow is the flow's
	// stable ID (drives addresses, hence flow hashing), seq the
	// packet's index within the flow. Defaults to a minimum-size IPv4
	// POS frame with an occasional TTL-1 packet on the slow path.
	Build func(flow, seq int) []byte
}

// DefaultGenConfig returns the standard bursty heavy-tailed profile:
// 100k packets from 64 concurrent flows, tail index 1.3, 200k pkt/s
// bursts of mean 2ms separated by mean 2ms idles.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Seed:     1,
		Packets:  100_000,
		Flows:    64,
		Alpha:    1.3,
		MinFlow:  4,
		PeakRate: 200_000,
		OnMean:   2 * time.Millisecond,
		OffMean:  2 * time.Millisecond,
	}
}

// maxFlowLen caps a single Pareto draw so one extreme flow cannot
// swallow the entire stream (the distribution's raw tail is unbounded).
const maxFlowLen = 1 << 20

type genFlow struct {
	id        int
	seq       int
	remaining int
}

// Generator is a deterministic seeded Source producing the GenConfig
// process. The packet sequence depends only on the config, never on
// timing, so a generator-fed serve can be checked against the oracle.
type Generator struct {
	cfg      GenConfig
	rng      *rand.Rand
	active   []genFlow
	nextID   int
	produced int
	clock    time.Duration // virtual arrival time of the last packet
	burstEnd time.Duration
	started  time.Time // wall-clock anchor for paced mode
	stats    Stats

	// One generated-but-undelivered packet: stashed when a batch is cut
	// at a burst boundary or a pacing sleep, re-delivered first on the
	// next Pull.
	pending      []byte
	pendingAt    time.Duration
	pendingBurst bool
}

// maxGenFlows bounds the concurrently active flows: the flow table is
// allocated up front, and its size comes straight from an operator's spec
// string.
const maxGenFlows = 1 << 20

// NewGenerator validates cfg and builds the generator. Non-positive (or
// NaN) Alpha, Flows outside 1..maxGenFlows, non-positive MinFlow, PeakRate
// or OnMean wrap errs.ErrBadSource.
func NewGenerator(cfg GenConfig) (*Generator, error) {
	if !(cfg.Alpha > 0) {
		return nil, fmt.Errorf("%w: generator alpha %v must be positive", errs.ErrBadSource, cfg.Alpha)
	}
	if cfg.Flows < 1 || cfg.Flows > maxGenFlows {
		return nil, fmt.Errorf("%w: generator flows %d must be in 1..%d", errs.ErrBadSource, cfg.Flows, maxGenFlows)
	}
	if cfg.MinFlow < 1 {
		return nil, fmt.Errorf("%w: generator min flow length %d must be at least 1", errs.ErrBadSource, cfg.MinFlow)
	}
	if cfg.PeakRate <= 0 {
		return nil, fmt.Errorf("%w: generator peak rate %v must be positive", errs.ErrBadSource, cfg.PeakRate)
	}
	if cfg.Packets < 0 {
		return nil, fmt.Errorf("%w: generator packet count %d must be non-negative", errs.ErrBadSource, cfg.Packets)
	}
	if cfg.OnMean <= 0 || cfg.OffMean < 0 {
		return nil, fmt.Errorf("%w: generator burst durations on=%v off=%v", errs.ErrBadSource, cfg.OnMean, cfg.OffMean)
	}
	if cfg.Build == nil {
		cfg.Build = func(flow, seq int) []byte {
			ttl := byte(64)
			if seq%17 == 0 {
				ttl = 1 // occasional expiry exercises the slow path
			}
			return netbench.MinIPv4Packet(flow, ttl)
		}
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.active = make([]genFlow, cfg.Flows)
	for i := range g.active {
		g.active[i] = g.newFlow()
	}
	// The stream opens at the start of the first burst.
	g.burstEnd = g.expDur(cfg.OnMean)
	return g, nil
}

func (g *Generator) newFlow() genFlow {
	f := genFlow{id: g.nextID, remaining: g.paretoLen()}
	g.nextID++
	return f
}

// paretoLen draws a flow length from Pareto(MinFlow, Alpha) by inverse
// CDF — len = ceil(MinFlow · u^(-1/α)) — capped at maxFlowLen.
func (g *Generator) paretoLen() int {
	u := g.rng.Float64()
	for u == 0 {
		u = g.rng.Float64()
	}
	v := float64(g.cfg.MinFlow) * math.Pow(u, -1/g.cfg.Alpha)
	if v > maxFlowLen {
		return maxFlowLen
	}
	return int(math.Ceil(v))
}

func (g *Generator) expDur(mean time.Duration) time.Duration {
	return time.Duration(g.rng.ExpFloat64() * float64(mean))
}

// genNext produces one packet and its virtual arrival time; newBurst
// reports that the packet opens a fresh burst (a batch boundary in
// unpaced mode). ok=false means the stream is exhausted.
func (g *Generator) genNext() (pkt []byte, at time.Duration, newBurst bool, ok bool) {
	if g.produced >= g.cfg.Packets {
		return nil, 0, false, false
	}
	// Arrival process: exponential inter-arrivals at PeakRate while the
	// modulating state is ON; when the burst budget runs out, jump over
	// an OFF idle into the next burst.
	gap := time.Duration(g.rng.ExpFloat64() / g.cfg.PeakRate * float64(time.Second))
	g.clock += gap
	for g.clock > g.burstEnd {
		idle := g.expDur(g.cfg.OffMean)
		start := g.burstEnd + idle
		g.burstEnd = start + g.expDur(g.cfg.OnMean)
		g.clock = start + gap
		newBurst = true
	}
	i := g.rng.Intn(len(g.active))
	f := &g.active[i]
	pkt = g.cfg.Build(f.id, f.seq)
	f.seq++
	f.remaining--
	if f.remaining <= 0 {
		g.active[i] = g.newFlow()
	}
	g.produced++
	return pkt, g.clock, newBurst, true
}

// next returns the stashed pending packet if one exists, else generates.
func (g *Generator) next() (pkt []byte, at time.Duration, newBurst bool, ok bool) {
	if g.pending != nil {
		pkt, at, newBurst = g.pending, g.pendingAt, g.pendingBurst
		g.pending = nil
		return pkt, at, newBurst, true
	}
	return g.genNext()
}

func (g *Generator) stash(pkt []byte, at time.Duration, newBurst bool) {
	g.pending, g.pendingAt, g.pendingBurst = pkt, at, newBurst
}

// Pull delivers the next batch. Unpaced, it fills dst but ends the
// batch early at a burst boundary; paced, it sleeps until each packet's
// modeled arrival time (never while already holding packets).
func (g *Generator) Pull(ctx context.Context, dst [][]byte) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if g.cfg.Paced && g.started.IsZero() {
		g.started = time.Now()
	}
	n := 0
	for n < len(dst) {
		pkt, at, newBurst, ok := g.next()
		if !ok {
			if n > 0 {
				return n, nil
			}
			return 0, io.EOF
		}
		if newBurst && n > 0 && !g.cfg.Paced {
			g.stash(pkt, at, newBurst)
			return n, nil
		}
		if g.cfg.Paced {
			due := g.started.Add(at)
			if wait := time.Until(due); wait > 0 {
				if n > 0 {
					g.stash(pkt, at, newBurst)
					return n, nil
				}
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					g.stash(pkt, at, newBurst)
					return 0, ctx.Err()
				}
			}
		}
		dst[n] = pkt
		g.stats.countRx(len(pkt))
		n++
	}
	return n, nil
}

// Stats returns the generator's counters.
func (g *Generator) Stats() *Stats { return &g.stats }

// Close releases nothing; generators hold no OS resources.
func (g *Generator) Close() error { return nil }

// Records runs a fresh generator over the whole configured stream and
// returns it as timestamped pcap records anchored at base — the bridge
// between the generator and checked-in capture fixtures.
func Records(cfg GenConfig, base time.Time) ([]PcapRecord, error) {
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	var recs []PcapRecord
	for {
		pkt, at, _, ok := g.genNext()
		if !ok {
			return recs, nil
		}
		recs = append(recs, PcapRecord{Time: base.Add(at), Data: pkt})
	}
}
