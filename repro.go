// Package repro is an open-source reproduction of "Automatically
// Partitioning Packet Processing Applications for Pipelined Architectures"
// (Dai, Huang, Li, Harrison — PLDI 2005): a compiler that transforms a
// sequential packet processing stage (PPS) into D coordinated pipeline
// stages, selecting balanced minimum-cost cuts on a flow-network model of
// the program and realizing each stage with minimal, packed, unified
// live-set transmission — plus the machinery to run the result: a
// sequential oracle and a host-native streaming runtime that serves real
// packet streams with one goroutine per stage. The paper's IXP timing comes
// from the cycle-approximate simulators behind go run ./cmd/pipebench.
//
// The typical flow:
//
//	prog, err := repro.Compile(src)                       // PPC source -> IR
//	pipe, err := repro.Partition(prog, repro.WithStages(4))
//	metrics, err := pipe.Serve(ctx, repro.PacketSource(packets))
//
// Partition returns a *Pipeline handle. Its methods cover the two ways
// to execute a partitioned program:
//
//	pipe.Run(ctx, world)        // sequential oracle (trace correctness)
//	pipe.Serve(ctx, source)     // concurrent host runtime (measured throughput)
//
// Callers evaluating many configurations of one program should Analyze
// once and Partition per configuration; see Analysis. Configuration is
// uniform functional options (WithStages, WithTxMode, WithRing, ...)
// validated centrally against typed errors (ErrBadOption, ErrUnbalanced,
// ...); each entry point accepts exactly the options that mean something
// to it (the matrix on Option) and rejects the rest. Serve realizes the
// cut once, statically: cuts the cost model finds not worth their ring are
// un-made (WithFusion), and Pipeline.Plan says what was served and why.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured results.
package repro

import (
	"context"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/ingest"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
	"repro/internal/obsv"
	"repro/internal/ppc"
	"repro/internal/runtime"
)

// Program is a compiled PPS: the one-iteration loop body plus its arrays.
type Program = ir.Program

// Report aggregates per-stage costs, per-cut live sets, and the paper's
// speedup/overhead metrics.
type Report = core.Report

// PathCost is a worst-case path cost (processing + transmission).
type PathCost = core.PathCost

// TxMode selects the live-set transmission strategy.
type TxMode = core.TxMode

// Transmission strategies (paper figures 10-16).
const (
	TxPacked            = core.TxPacked
	TxNaiveUnified      = core.TxNaiveUnified
	TxNaiveInterference = core.TxNaiveInterference
)

// ChannelKind selects the inter-stage ring type.
type ChannelKind = costmodel.ChannelKind

// Ring kinds of the IXP.
const (
	NNRing      = costmodel.NNRing
	ScratchRing = costmodel.ScratchRing
)

// World is the execution environment: packet stream, route tables, queues,
// and the observable event trace.
type World = interp.World

// Event is one observable action (trace, send, drop).
type Event = interp.Event

// Metrics is what a serve returns: its final Snapshot (throughput,
// per-stage counters), the fault ledger and — unless WithSink sent it
// elsewhere — the observable trace in sequential order.
type Metrics = runtime.Metrics

// StageStats are one stage's serve-path counters.
type StageStats = runtime.StageStats

// Snapshot is a point-in-time view of a serve run's counters, returned by
// Pipeline.Snapshot — the live analogue of Metrics, safe to take while the
// run is still moving.
type Snapshot = runtime.Snapshot

// Observer bundles the observability sinks Serve threads through the
// runtime (WithObserver): a Tracer for per-phase spans, a Registry for
// counters and histograms, and an optional periodic progress logger. Any
// subset of fields may be set; the zero Observer observes nothing.
type Observer = obsv.Observer

// Tracer records per-stage phase spans from a served pipeline; export
// with WriteChromeTrace or render with Timeline.
type Tracer = obsv.Tracer

// Span is one traced interval: a (stage, iteration, phase) triple with
// its offset and duration.
type Span = obsv.Span

// Phase classifies what a traced span measures.
type Phase = obsv.Phase

// Span phases: ring-wait (blocked receiving from upstream), execute
// (running stage bodies), and transmit (blocked sending downstream).
const (
	PhaseWait = obsv.PhaseWait
	PhaseExec = obsv.PhaseExec
	PhaseTx   = obsv.PhaseTx
)

// Registry is a process-local metrics registry: named computed gauges and
// histograms with a point-in-time Snapshot, a JSON form, and an
// http.Handler for scraping.
type Registry = obsv.Registry

// HistogramSnapshot is the frozen form of one histogram inside a
// Registry snapshot.
type HistogramSnapshot = obsv.HistogramSnapshot

// NewTracer returns a span recorder holding up to max spans (0 means the
// default capacity); beyond that, new spans are counted as dropped.
func NewTracer(max int) *Tracer { return obsv.NewTracer(max) }

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obsv.NewRegistry() }

// WriteChromeTrace exports spans in Chrome trace_event JSON — load the
// file at chrome://tracing or https://ui.perfetto.dev to see the
// pipeline's stage timeline as swimlanes.
func WriteChromeTrace(w io.Writer, spans []Span) error { return obsv.WriteChromeTrace(w, spans) }

// Timeline renders spans as a fixed-width ASCII swimlane per stage —
// '#' executing, 'w' waiting on the inbound ring, 't' blocked
// transmitting, '.' idle.
func Timeline(spans []Span, width int) string { return obsv.Timeline(spans, width) }

// Source supplies the packet stream a served pipeline consumes, one packet
// per call: Next returns the next packet and true, or nil and false when the
// stream is exhausted, which drains the pipeline. Next is called from one
// goroutine only, and a Next that blocks paces the pipeline. Its packets are
// lent — the pipeline copies one before a stage rewrites it — so Next may
// hand the same bytes out again. Serve fills each batch with Next calls; a
// network-facing source goes through WithSource instead.
type Source interface {
	Next() ([]byte, bool)
}

// PacketSource returns a Source that replays pkts once, in order.
func PacketSource(pkts [][]byte) Source { return runtime.Packets(pkts) }

// RepeatSource cycles through pkts until total packets have been served —
// a saturated-arrivals load generator.
func RepeatSource(pkts [][]byte, total int) Source { return runtime.Repeat(pkts, total) }

// SourceFunc adapts a closure to the Source interface.
func SourceFunc(f func() ([]byte, bool)) Source { return runtime.SourceFunc(f) }

// Sink is where a served pipeline's output goes (WithSink): batches of
// events pushed in source order by one goroutine, the slice the engine's
// again when Push returns, one Close on every exit.
type Sink = runtime.Sink

// HashSink is the sink that folds the stream into one order-sensitive digest
// (Digest); push the oracle's trace through a second one to compare. The
// zero value is ready to use.
type HashSink = runtime.HashSink

// DiscardSink returns a sink that keeps nothing, so a serve of any length
// runs in flat memory.
func DiscardSink() Sink { return runtime.Discard() }

// NewPcapSink returns a sink that writes every sent packet (the EvSend
// events; trace and drop events carry none) to w as one capture record, in
// the classic libpcap format OpenSource's pcap:// reads back. Records are
// stamped with the time they were pushed; Close flushes and reports the
// records written. The caller closes w.
func NewPcapSink(w io.Writer) Sink { return &pcapSink{w: ingest.NewPcapWriter(w)} }

type pcapSink struct {
	w *ingest.PcapWriter
	n int64
}

func (p *pcapSink) Push(_ context.Context, evs []Event) error {
	now := time.Now()
	for i := range evs {
		if evs[i].Kind != interp.EvSend {
			continue
		}
		if err := p.w.Write(ingest.PcapRecord{Time: now, Data: evs[i].Pkt}); err != nil {
			return err
		}
		p.n++
	}
	return nil
}

func (p *pcapSink) Close() (int64, error) { return p.n, p.w.Flush() }

// BatchSource is a network-facing packet supplier: a pull-batch,
// context-cancelable source whose buffers transfer ownership at Pull
// (see internal/ingest). Feed one to a served pipeline with WithSource;
// build one from an operator spec with OpenSource, or directly with the
// internal/ingest constructors.
type BatchSource = ingest.Source

// IngestStats are the boundary counters of a network-facing source (rx
// packets/bytes, drops, decode errors), surfaced through
// Snapshot.Ingest, Metrics.Ingest, and the ingest.* registry gauges.
type IngestStats = runtime.IngestStats

// OpenSource builds a BatchSource from an operator-facing spec:
//
//	udp://:9000                         UDP listener, one datagram = one packet
//	tcp://:9001                         TCP listener, 2-byte big-endian length framing
//	pcap://testdata/flows.pcap?pace=1   capture replay (pace 0: unpaced, 1: recorded, N: ×faster; loop=K repeats)
//	gen://ipv4?seed=1&packets=50000     seeded generator (flows, alpha, peak, paced parameters)
//
// Socket sources are listening when OpenSource returns. Malformed specs
// are rejected with ErrBadSource; the caller closes the source when the
// serve is done.
func OpenSource(spec string) (BatchSource, error) { return ingest.Open(spec) }

// FlowKey derives a flow key from a raw packet in the POS framing the
// toolkit's benchmarks use: it hashes the IPv4/IPv6 5-tuple (addresses,
// protocol, and — for TCP/UDP — ports), so every packet of one transport
// flow gets the same key. Non-IP and truncated frames fall back to hashing
// the whole packet. Serve needs no key (see WithShardKey); the benchmark
// harness still uses this one.
func FlowKey(pkt []byte) uint64 { return netbench.FlowKey(pkt) }

// Compile parses PPC source and lowers it to IR.
func Compile(src string) (*Program, error) { return ppc.Compile(src) }

// MustCompile is Compile for known-good sources; it panics on error.
func MustCompile(src string) *Program { return ppc.MustCompile(src) }

// NewWorld builds an execution environment over an input packet stream.
func NewWorld(packets [][]byte) *World { return interp.NewWorld(packets) }

// TraceEqual compares two traces, returning a description of the first
// difference or "".
func TraceEqual(a, b []Event) string { return interp.TraceEqual(a, b) }

// Partition applies the automatic pipelining transformation and returns
// the executable Pipeline handle:
//
//	pipe, err := repro.Partition(prog, repro.WithStages(4), repro.WithTxMode(repro.TxPacked))
//
// Partition is the one-shot convenience path; callers cutting several
// configurations of one program should Analyze once and call
// (*Analysis).Partition per configuration.
func Partition(prog *Program, opts ...Option) (*Pipeline, error) {
	a, err := Analyze(prog, opts...)
	if err != nil {
		return nil, err
	}
	return a.Partition(opts...)
}

// Analysis is the reusable degree-independent half of the compiler: build
// it once with Analyze, then cut any number of configurations — sequentially
// or from concurrent goroutines — with Partition, or sweep degrees against
// a budget with Explore.
type Analysis struct {
	a   *core.Analysis
	cfg config // analysis-time defaults inherited by each cut
}

// Analyze runs the degree-independent analysis phase (SSA, dependence
// graph, SCC condensation, flow-network skeleton) on a compiled PPS under
// the IXP2800-flavored cost model. Options given here are recorded as the
// defaults of every cut; per-cut options are given to Partition.
func Analyze(prog *Program, opts ...Option) (*Analysis, error) {
	cfg, err := config{}.with(opts)
	if err != nil {
		return nil, err
	}
	a, err := core.Analyze(prog, nil)
	if err != nil {
		return nil, err
	}
	return &Analysis{a: a, cfg: cfg}, nil
}

// Seq returns the worst-case path cost of the unpartitioned program.
func (a *Analysis) Seq() PathCost { return a.a.Seq() }

// Partition cuts one configuration from the analysis. It never mutates the
// Analysis, so any number of Partition calls may run concurrently on one
// receiver, each returning a deterministic Pipeline.
func (a *Analysis) Partition(opts ...Option) (*Pipeline, error) {
	cfg, err := a.cfg.with(opts)
	if err != nil {
		return nil, err
	}
	res, err := a.a.Partition(cfg.explore.Base)
	if err != nil {
		return nil, err
	}
	return newPipeline(res, cfg, a.a.Arch()), nil
}

// Exploration is the outcome of a budget-driven degree search.
type Exploration struct {
	// Degree is the selected pipelining degree (number of PEs used).
	Degree int
	// Met reports whether the budget is statically guaranteed; when false,
	// Pipeline is the best (lowest worst-case stage cost) candidate found.
	Met bool
	// Pipeline is the selected configuration, ready to run.
	Pipeline *Pipeline
	// Candidates records the longest-stage cost at every degree examined.
	Candidates []CandidateCost
}

// CandidateCost is one explored configuration.
type CandidateCost = core.CandidateCost

// Explore selects the smallest pipelining degree whose statically
// guaranteed worst-case stage cost meets a per-packet budget (WithBudget,
// required) — the compiler-driver behaviour the paper sketches in §2.2.
// It searches 1..10 processing engines, fanning candidates out over
// GOMAXPROCS goroutines; the selection is the same at any core count.
func (a *Analysis) Explore(opts ...Option) (*Exploration, error) {
	cfg, err := a.cfg.with(opts)
	if err != nil {
		return nil, err
	}
	ex, err := a.a.Explore(cfg.explore)
	if err != nil {
		return nil, err
	}
	return &Exploration{
		Degree:     ex.Degree,
		Met:        ex.Met,
		Pipeline:   newPipeline(ex.Result, cfg, a.a.Arch()),
		Candidates: ex.Candidates,
	}, nil
}
