package main

import (
	"context"
	"errors"
	"fmt"
	stdruntime "runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/ingest"
	"repro/internal/netbench"
	"repro/internal/obsv"
)

// serveSpec is the shape of one serve workload: which PPS, how it is cut
// and realized, and where its packets come from.
type serveSpec struct {
	pps       string // netbench name
	mixed     bool   // MixedStream traffic (IPv6 at odd positions)
	degree    int
	batch     int
	shards    int
	fusionOff bool    // every cut on a ring; default is the cost model's verdict
	tcp       bool    // fed over loopback TCP through internal/ingest
	openRate  float64 // open-loop Poisson arrivals in pkt/s; 0 is saturated
	packets   int     // offered per repetition
}

// traceMode selects what a repetition attaches to Serve.
type traceMode int

const (
	untraced   traceMode = iota
	tracerOnly           // a Tracer, for the egress stamps latency needs
	traced               // Tracer and Registry, the per-stage ledger run
)

// serveRun is one prepared serve workload: compiled, cut, traffic
// generated, oracle hashed.
type serveRun struct {
	h      *harness
	spec   serveSpec
	src    string
	prog   *repro.Program
	pipe   *repro.Pipeline
	cyc    [][]byte
	n      int
	due    []time.Duration
	oracle traceHash
}

// repResult is what one repetition hands back for the ledger.
type repResult struct {
	m      *repro.Metrics
	wall   time.Duration // first pull to Serve return: what pkt_per_s divides by
	stream []float64     // seconds per packet of each traffic cycle pulled (saturated sources)
	tail   time.Duration // end of the stream to Serve return: drain, join, trace assembly
	call   time.Duration // Serve call to Serve return
	alloc  uint64        // TotalAlloc across the call
	malloc uint64
	gcs    uint32
	tracer *repro.Tracer
	handed []time.Duration
	first  time.Time
}

func serveWorkload(spec serveSpec) func(h *harness) error {
	return func(h *harness) error {
		pps, ok := netbench.ByName(spec.pps)
		if !ok {
			return fmt.Errorf("unknown PPS %q", spec.pps)
		}
		r := &serveRun{h: h, spec: spec, src: pps.Source, n: spec.packets}
		if h.opt.short {
			r.n = spec.packets / 24
		}
		return r.run()
	}
}

func (r *serveRun) options() []repro.Option {
	s := r.spec
	opts := []repro.Option{repro.WithStages(s.degree), repro.WithBatch(s.batch)}
	if s.fusionOff {
		opts = append(opts, repro.WithFusion(repro.FusionOff))
	}
	if s.shards > 1 {
		opts = append(opts, repro.WithShards(s.shards), repro.WithShardKey(repro.FlowKey))
	}
	return opts
}

func (r *serveRun) run() error {
	h := r.h
	r.cyc = genCycle(h.opt.seed, r.spec.mixed)
	if r.spec.openRate > 0 {
		r.due = poissonSchedule(h.opt.seed, r.n, r.spec.openRate)
		// Arrivals follow the schedule: the delivered rate is the offered
		// one on any host fast enough to keep up.
		h.paced = map[string]bool{"pkt_per_s": true}
	} else {
		// Saturated: packets over the wall time rebuilt from its parts.
		h.derive["pkt_per_s"] = func(s samples) float64 {
			return safeDiv(float64(r.n), h.bestSum(s, "serve_s"))
		}
	}

	// Set-up: compile, analyze, cut, and a zero-packet Serve (engine build,
	// exec lowering, goroutine start, join). The harness's own traffic and
	// oracle work stay outside it. Once here, cold, then once between each
	// pair of timed repetitions, so that its samples see the whole run's
	// share of a shared host, as the other metrics' do.
	if err := r.setup(); err != nil {
		return err
	}

	var err error
	dOracle := h.span("interp.oracle", func() { r.oracle, err = oracleHash(r.prog, r.cyc, r.n) })
	if err != nil {
		return err
	}
	h.samples.add("interp.seq_ns_per_pkt", float64(dOracle)/float64(r.n))
	an, err := repro.Analyze(r.prog)
	if err != nil {
		return err
	}

	// One warm-up, discarded for timing but checked like any other run,
	// then timed repetitions on identical input.
	if _, err := r.rep("warmup", untraced, false); err != nil {
		return err
	}
	// The per-layer half keeps time for its traced run and probes.
	share := 0.92
	if h.opt.layers {
		share = 0.55
	}
	minReps := 6
	if h.opt.short {
		minReps = 3
	}
	ref := newHostRef()
	err = h.repeat(h.budget(share), minReps, func(i int) error {
		var err error
		switch {
		case r.spec.openRate > 0:
			// Tracer-only throughout: latency is this workload's
			// end-to-end number and needs the egress stamps.
			err = r.openRep()
		case i%2 == 1:
			err = r.residenceRep()
		default:
			err = r.saturatedRep()
		}
		// One set-up, one partition sweep and two samples of the host
		// reference between repetitions, so that every metric's samples
		// are spread over the whole run.
		if err == nil {
			if err = r.setup(); err == nil {
				ownSweep(h, an)
			}
		}
		ref.sample(h)
		ref.sample(h)
		return err
	})
	if err == nil && len(h.samples["lat_p50_us"]) == 0 {
		err = r.residenceRep() // -reps 1
	}
	if err != nil {
		return err
	}
	if h.opt.layers {
		return r.layers()
	}
	return nil
}

// setup measures one full set-up and keeps the last pipeline.
func (r *serveRun) setup() error {
	h := r.h
	var err error
	var an *repro.Analysis
	settle()
	total := h.span("setup", func() {
		dc := h.span("ppc.compile", func() { r.prog, err = repro.Compile(r.src) })
		if err != nil {
			return
		}
		da := h.span("core.analyze", func() { an, err = repro.Analyze(r.prog) })
		if err != nil {
			return
		}
		dp := h.span("core.partition", func() { r.pipe, err = an.Partition(r.options()...) })
		if err != nil {
			return
		}
		var m *repro.Metrics
		ds := h.span("runtime.empty_serve", func() {
			m, err = r.pipe.Serve(context.Background(), repro.PacketSource(nil), repro.WithWorld(netbench.NewWorld(nil)))
		})
		if err == nil && m.Packets != 0 {
			err = fmt.Errorf("zero-packet serve retired %d packets", m.Packets)
		}
		for _, call := range []struct {
			layer, part string
			d           time.Duration
		}{{"ppc.compile_ms", "compile", dc}, {"core.analyze_ms", "analyze", da},
			{"core.partition_ms", "partition", dp}, {"runtime.empty_serve_ms", "empty_serve", ds}} {
			h.samples.add(call.layer, ms(call.d))
			h.part("setup_s", call.part, call.d.Seconds())
		}
	})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	h.samples.add("setup_s", total.Seconds())
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rep serves the workload's packets once and checks the result against
// the oracle; paced selects the open-loop source (the warm-up of an open
// workload runs saturated: it warms the same code in a sixth of the
// time). Its clock is the harness's own: from the source's first
// pull to Serve returning with the trace merged in oracle order.
func (r *serveRun) rep(name string, mode traceMode, paced bool) (*repResult, error) {
	h := r.h
	res := &repResult{}
	opts := []repro.Option{repro.WithWorld(netbench.NewWorld(nil))}
	switch mode {
	case tracerOnly, traced:
		// Sized for the run: three spans per batch per stage replica, with
		// room for partial batches. A dropped span would break the ledger.
		res.tracer = repro.NewTracer(8*(r.n/r.spec.batch+64)*r.spec.degree + 4096)
		obs := &repro.Observer{Tracer: res.tracer}
		if mode == traced {
			obs.Registry = repro.NewRegistry()
		}
		opts = append(opts, repro.WithObserver(obs))
	}

	var src repro.Source
	var first *time.Time // the source's stamp of its first pull
	var pulled *marks    // a saturated source's cycle marks
	var finish func() error
	switch {
	case r.spec.tcp:
		tcp, err := ingest.OpenTCP("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		sent := make(chan error, 1)
		go func() { sent <- sendFrames(tcp.LocalAddr().String(), r.cyc, r.n) }()
		stamped := &stampSource{Source: ingest.Limit(tcp, int64(r.n))}
		opts = append(opts, repro.WithSource(stamped))
		first, pulled = &stamped.first, &stamped.marks
		finish = func() error {
			// Closing the listener side first unblocks a sender still
			// writing after a failed serve.
			cerr := tcp.Close()
			return errors.Join(<-sent, cerr)
		}
	case paced:
		p := &pacedSource{cyc: r.cyc, due: r.due, handed: make([]time.Duration, r.n)}
		res.handed = p.handed
		src, first = p, &p.first
	default:
		c := &cycleSource{cyc: r.cyc, total: r.n}
		src, first, pulled = c, &c.first, &c.marks
	}

	var ms0, ms1 stdruntime.MemStats
	var err error
	settle()
	stdruntime.ReadMemStats(&ms0)
	var done time.Time
	res.call = h.span("serve."+name, func() {
		res.m, err = r.pipe.Serve(context.Background(), src, opts...)
		done = time.Now()
	})
	stdruntime.ReadMemStats(&ms1)
	if finish != nil {
		err = errors.Join(err, finish())
	}
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	res.first = *first
	res.wall = done.Sub(res.first)
	if pulled != nil {
		var end time.Duration
		res.stream, end = pulled.perPacket()
		res.tail = res.wall - end
	}
	res.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	res.malloc = ms1.Mallocs - ms0.Mallocs
	res.gcs = ms1.NumGC - ms0.NumGC

	h.span("verify", func() {
		failed, why := checkServe(res.m, int64(r.n), r.oracle)
		h.attempted += int64(r.n)
		h.failed += failed
		if why != "" {
			h.problem("%s %s: %s", h.workload, name, why)
		}
	})
	return res, nil
}

// saturatedRep is one timed, untraced repetition: the end-to-end
// throughput and allocation samples, and the always-on stage counters.
// Its wall time — first pull to Serve return — is also recorded in parts:
// the time of each traffic cycle the source saw pulled, scaled to the
// whole stream, and the tail from the end of the stream to the return.
func (r *serveRun) saturatedRep() error {
	res, err := r.rep("timed", untraced, false)
	if err != nil {
		return err
	}
	h := r.h
	h.samples.add("pkt_per_s", float64(r.n)/res.wall.Seconds())
	h.samples.add("alloc_b_per_pkt", float64(res.alloc)/float64(r.n))
	for _, perPkt := range res.stream {
		h.part("serve_s", "stream", perPkt*float64(r.n))
	}
	h.part("serve_s", "tail", res.tail.Seconds())
	r.counters(res)
	return nil
}

// residenceRep gives a saturated workload its latency figure: a
// Tracer-only repetition, and the median per-batch residence time the
// program's own spans reconstruct (obsv.BatchLatencies — the figure the
// ThroughputUnderP99 objective steers by), one sample per traffic cycle.
// No throughput is taken from it.
func (r *serveRun) residenceRep() error {
	res, err := r.rep("residence", tracerOnly, false)
	if err != nil {
		return err
	}
	lats := obsv.BatchLatencies(res.tracer.Spans()) // in batch order
	resid := make([]float64, len(lats))
	for i, l := range lats {
		resid[i] = us(l.Latency)
	}
	for _, m := range chunkMedians(resid, cycleLen/r.spec.batch) {
		r.h.samples.add("lat_p50_us", m)
	}
	if d := res.tracer.Dropped(); d != 0 {
		r.h.problem("%s residence: tracer dropped %d spans", r.h.workload, d)
	}
	return nil
}

// openRep is one open-loop repetition. Latency runs from the moment a
// packet was due to the end of the last stage's exec span covering it —
// the only egress stamp the program exposes until it has a Sink. The
// end-to-end median is sampled once per cycle's worth of packets, the
// diagnostics over the whole repetition.
func (r *serveRun) openRep() error {
	res, err := r.rep("open", tracerOnly, true)
	if err != nil {
		return err
	}
	h := r.h
	if d := res.tracer.Dropped(); d != 0 {
		h.problem("%s: tracer dropped %d spans", h.workload, d)
	}
	// Egress per packet, on the source's clock.
	shift := res.tracer.Origin().Sub(res.first)
	egress := make([]time.Duration, r.n)
	for _, s := range res.tracer.Spans() {
		if s.Stage != r.spec.degree || s.Phase != repro.PhaseExec || s.Iter < 0 {
			continue
		}
		end := shift + s.Start + s.Dur
		for i := s.Iter; i < s.Iter+int64(s.N) && i < int64(r.n); i++ {
			egress[i] = end
		}
	}
	lat := make([]float64, 0, r.n)
	late := make([]float64, 0, r.n)
	for i, e := range egress {
		if e == 0 {
			continue // undelivered: already counted as failed
		}
		lat = append(lat, us(e-r.due[i]))
		late = append(late, us(res.handed[i]-r.due[i]))
	}
	if len(lat) == 0 {
		return fmt.Errorf("open loop: no packet has an egress span")
	}
	for _, m := range chunkMedians(lat, cycleLen) {
		h.samples.add("lat_p50_us", m)
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	over := sort.SearchFloat64s(lat, 1000)
	h.samples.add("lat.p90_us", quantileSorted(lat, 0.90))
	h.samples.add("lat.p99_us", quantileSorted(lat, 0.99))
	h.samples.add("lat.p999_us", quantileSorted(lat, 0.999))
	h.samples.add("lat.max_us", lat[len(lat)-1])
	h.samples.add("lat.over_1ms_frac", float64(len(lat)-over)/float64(len(lat)))
	h.samples.add("harness.gen_late_p50_us", quantileSorted(late, 0.50))
	h.samples.add("harness.gen_late_p99_us", quantileSorted(late, 0.99))
	// The delivered rate: equal to the offered rate unless a backlog grew.
	h.samples.add("pkt_per_s", float64(r.n)/res.wall.Seconds())
	h.samples.add("alloc_b_per_pkt", float64(res.alloc)/float64(r.n))
	r.counters(res)
	return nil
}

// counters turns one run's always-on StageStats into per-packet ledger
// samples.
func (r *serveRun) counters(res *repResult) {
	h, m, n := r.h, res.m, float64(r.n)
	var busy, maxBusy, rx, tx, stalls, occ, spins, parks, spinNs, parkNs float64
	for i := range m.Stages {
		s := &m.Stages[i]
		// Busy is summed over a stage's replicas; the pipe's bound is one
		// replica's share.
		b := float64(s.Busy) / float64(max(1, s.Replicas))
		busy += float64(s.Busy)
		maxBusy = max(maxBusy, b)
		rx += float64(s.RxWait)
		tx += float64(s.TxWait)
		stalls += float64(s.Stalls)
		occ += s.MeanOccupancy()
		spins += float64(s.Spins)
		parks += float64(s.Parks)
		spinNs += float64(s.SpinWait)
		parkNs += float64(s.ParkWait)
	}
	h.samples.add("runtime.busy_ns_per_pkt", busy/n)
	h.samples.add("runtime.max_stage_busy_ns_per_pkt", maxBusy/n)
	h.samples.add("runtime.wall_over_bottleneck", safeDiv(float64(res.wall), maxBusy))
	h.samples.add("runtime.rx_wait_ns_per_pkt", rx/n)
	h.samples.add("runtime.tx_wait_ns_per_pkt", tx/n)
	h.samples.add("runtime.stalls_per_kpkt", 1000*stalls/n)
	h.samples.add("runtime.mean_occupancy", safeDiv(occ, float64(len(m.Stages)-1)))
	h.samples.add("runtime.outside_elapsed_ns_per_pkt", float64(res.call-m.Elapsed)/n)
	h.samples.add("runtime.mallocs_per_pkt", float64(res.malloc)/n)
	h.samples.add("runtime.gc_cycles_per_mpkt", 1e6*float64(res.gcs)/n)
	h.samples.add("spsc.spins_per_kpkt", 1000*spins/n)
	h.samples.add("spsc.parks_per_kpkt", 1000*parks/n)
	h.samples.add("spsc.spin_ns_per_pkt", spinNs/n)
	h.samples.add("spsc.park_ns_per_pkt", parkNs/n)
	if in := m.Ingest; in != nil {
		h.samples.add("ingest.drop_frac", safeDiv(float64(in.Drops), float64(in.RxPackets+in.Drops)))
		h.samples.add("ingest.decode_errors", float64(in.DecodeErrors))
	}
	// The cost model's view of balance against the measured one.
	weights := r.pipe.Plan().StageWeights
	var wSum, wMax float64
	for _, w := range weights {
		wSum += float64(w)
		wMax = max(wMax, float64(w))
	}
	var bMax float64
	for i := range m.Stages {
		bMax = max(bMax, float64(m.Stages[i].Busy))
	}
	diff := safeDiv(wMax, wSum) - safeDiv(bMax, busy)
	if diff < 0 {
		diff = -diff
	}
	h.samples.add("costmodel.balance_err", diff)
	h.samples.add("costmodel.fused_cuts", float64(len(r.pipe.Plan().FusedCuts)))
}
