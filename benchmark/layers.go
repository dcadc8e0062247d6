package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	stdruntime "runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/ingest"
	"repro/internal/interp"
	"repro/internal/netbench"
	"repro/internal/obsv"
	"repro/internal/spsc"
)

// layers is the per-layer half of a serve workload: one traced repetition
// for the per-stage ledger, then each layer on the workload's path timed
// alone — its floor — through that layer's exported functions.
func (r *serveRun) layers() error {
	h := r.h
	if err := r.tracedRep(); err != nil {
		return err
	}
	if err := r.retainedRep(); err != nil {
		return err
	}

	var runners []*exec.Runner
	d := h.span("exec.lower", func() { runners = exec.NewStageRunners(r.pipe.Stages(), netbench.NewWorld(nil)) })
	h.samples.add("exec.lower_ms", ms(d))

	var perStage []float64
	var err error
	h.span("exec.chain", func() { perStage, err = execFloor(runners, r.cyc, min(r.n, 200_000), r.spec.batch) })
	if err != nil {
		return err
	}
	var chain, maxStage float64
	for _, v := range perStage {
		chain += v
		maxStage = max(maxStage, v)
	}
	h.samples.add("exec.chain_ns_per_pkt", chain)
	h.samples.add("exec.max_stage_ns_per_pkt", maxStage)
	h.samples.add("runtime.busy_over_exec", safeDiv(median(h.samples["runtime.busy_ns_per_pkt"]), chain))

	entries := 1_000_000
	if h.opt.short {
		entries = 20_000
	}
	if r.spec.degree > 1 {
		h.span("spsc.handoff", func() { h.samples.add("spsc.handoff_ns_per_entry", ringHandoff(entries, r.spec.batch)) })
		h.span("spsc.wake", func() { h.samples.add("spsc.wake_ns", ringWake(entries/20)) })
	}
	if r.spec.tcp {
		n := min(r.n, 150_000)
		for _, probe := range []struct {
			name   string
			viaFdr bool
		}{{"ingest.pull_ns_per_pkt", false}, {"ingest.feeder_ns_per_pkt", true}} {
			var ns float64
			h.span(probe.name, func() { ns, err = ingestFloor(r.cyc, n, probe.viaFdr) })
			if err != nil {
				return err
			}
			h.samples.add(probe.name, ns)
		}
	}
	return nil
}

// tracedRep runs the workload once under Observer{Tracer, Registry} and
// closes each stage's ledger: exec + wait + tx + unaccounted is that
// stage's goroutine time (the run's Elapsed, times its replicas) by
// construction, so unaccounted is the loop cost outside any span. Stages
// joined by a fused cut share a goroutine, and so one unaccounted share.
func (r *serveRun) tracedRep() error {
	h := r.h
	res, err := r.rep("traced", traced, r.due != nil)
	if err != nil {
		return err
	}
	spans := res.tracer.Spans()
	h.progSpans = spans
	h.progOrigin = res.tracer.Origin().Sub(h.started)
	totals := obsv.PhaseTotals(spans)
	n := float64(r.n)
	sum := func(t [3]time.Duration) float64 { return float64(t[0] + t[1] + t[2]) }
	fused := map[int]bool{} // cut k fused: stages k and k+1 share a goroutine
	for _, k := range r.pipe.Plan().FusedCuts {
		fused[k] = true
	}
	stages := res.m.Stages
	for first := 1; first <= len(stages); {
		last, accounted := first, sum(totals[first])
		for fused[last] && last < len(stages) {
			last++
			accounted += sum(totals[last])
		}
		unitWall := float64(res.m.Elapsed) * float64(max(1, stages[first-1].Replicas))
		for s := first; s <= min(last, ledgerStages); s++ {
			t := totals[s]
			p := fmt.Sprintf("runtime.s%d.", s)
			h.samples.add(p+"exec_ns_per_pkt", float64(t[obsv.PhaseExec])/n)
			h.samples.add(p+"wait_ns_per_pkt", float64(t[obsv.PhaseWait])/n)
			h.samples.add(p+"tx_ns_per_pkt", float64(t[obsv.PhaseTx])/n)
			h.samples.add(p+"unaccounted_frac", 1-safeDiv(accounted, unitWall))
		}
		first = last + 1
	}
	h.samples.add("obsv.spans_dropped", float64(res.tracer.Dropped()))
	tracedRate := float64(r.n) / res.wall.Seconds()
	h.samples.add("obsv.trace_overhead_frac", 1-safeDiv(tracedRate, median(h.samples["pkt_per_s"])))
	return nil
}

// retainedRep measures what a run leaves on the heap: one more untraced
// repetition between forced collections, its Metrics (the trace, above
// all) still live at the last. Three collections come first because an
// engine's sync.Pools keep it — and its trace — reachable through the
// pool registry for two cycles after Serve returns.
func (r *serveRun) retainedRep() error {
	var before, after stdruntime.MemStats
	for i := 0; i < 3; i++ {
		stdruntime.GC()
	}
	stdruntime.ReadMemStats(&before)
	res, err := r.rep("retained", untraced, false)
	if err != nil {
		return err
	}
	stdruntime.GC()
	stdruntime.ReadMemStats(&after)
	stdruntime.KeepAlive(res)
	retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	r.h.samples.add("runtime.retained_b_per_pkt", max(0, retained)/float64(r.n))
	return nil
}

// execFloor runs every realized stage back to back on one goroutine — no
// rings, no stage loop — over total packets of the cycle, a batch at a
// time exactly as the runtime's execOnce drives them (live set read from
// slots, written into spare, the two swapped), and returns each stage's
// ns per packet. A batch costs two clock reads per stage.
func execFloor(runners []*exec.Runner, cyc [][]byte, total, batch int) ([]float64, error) {
	for _, r := range runners {
		r.RxFromCtx = true
	}
	ctxs := make([]*interp.IterCtx, batch)
	slots := make([][]int64, batch)
	spare := make([][]int64, batch)
	for j := range ctxs {
		ctxs[j] = interp.NewIterCtx()
		ctxs[j].DeferEvents = true
	}
	busy := make([]time.Duration, len(runners))
	done := 0
	for done+batch <= total {
		for j, c := range ctxs {
			c.Pending, c.HasPending = cyc[(done+j)%len(cyc)], true
			slots[j] = slots[j][:0]
		}
		for k, r := range runners {
			t0 := time.Now()
			for j, c := range ctxs {
				sent, err := r.RunIterationInto(c, slots[j], spare[j])
				if err != nil {
					return nil, fmt.Errorf("exec floor, stage %d: %w", k+1, err)
				}
				if sent != nil {
					spare[j], slots[j] = slots[j], sent
				} else {
					slots[j] = slots[j][:0]
				}
			}
			busy[k] += time.Since(t0)
		}
		for _, c := range ctxs {
			c.Reset()
		}
		done += batch
	}
	out := make([]float64, len(runners))
	for k, b := range busy {
		out[k] = safeDiv(float64(b), float64(done))
	}
	return out, nil
}

// ringHandoff streams entries batch-sized entries through one SPSC ring
// at the serve path's default capacity, producer and consumer on their
// own goroutines, and returns ns per entry.
func ringHandoff(entries, batch int) float64 {
	ring := spsc.New[[]int64](8, spsc.DefaultStrategy())
	entry := make([]int64, batch)
	done := make(chan struct{})
	t0 := time.Now()
	go func() {
		for i := 0; i < entries; i++ {
			ring.Push(entry, nil, nil)
		}
		ring.Close()
	}()
	go func() {
		defer close(done)
		for {
			if _, ok, _ := ring.Pop(nil, nil); !ok {
				return
			}
		}
	}()
	<-done
	return float64(time.Since(t0)) / float64(entries)
}

// ringWake ping-pongs one entry between two goroutines over a pair of
// empty rings whose wait strategy parks at once, and returns half the
// round trip: one park-to-signal wake.
func ringWake(rounds int) float64 {
	ping := spsc.New[int](1, spsc.WaitStrategy{})
	pong := spsc.New[int](1, spsc.WaitStrategy{})
	go func() {
		for {
			v, ok, _ := ping.Pop(nil, nil)
			if !ok {
				pong.Close()
				return
			}
			pong.Push(v, nil, nil)
		}
	}()
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		ping.Push(i, nil, nil)
		pong.Pop(nil, nil)
	}
	d := time.Since(t0)
	ping.Close()
	pong.Pop(nil, nil) // wait for the echo goroutine to end
	return float64(d) / float64(2*rounds)
}

// ingestFloor feeds total packets through the TCP source from the same
// sender the workload uses and drains them into nothing — with a bare
// Pull loop, or through the Feeder's per-packet Next — returning ns per
// packet.
func ingestFloor(cyc [][]byte, total int, viaFeeder bool) (float64, error) {
	tcp, err := ingest.OpenTCP("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	sent := make(chan error, 1)
	go func() { sent <- sendFrames(tcp.LocalAddr().String(), cyc, total) }()
	src := ingest.Limit(tcp, int64(total))
	got := 0
	t0 := time.Now()
	if viaFeeder {
		f := ingest.NewFeeder(src, 32)
		for {
			if _, ok := f.Next(); !ok {
				break
			}
			got++
		}
		err = f.Err()
	} else {
		dst := make([][]byte, 32)
		for err == nil {
			var n int
			n, err = src.Pull(context.Background(), dst)
			got += n
		}
		if errors.Is(err, io.EOF) {
			err = nil
		}
	}
	d := time.Since(t0)
	cerr := tcp.Close()
	err = errors.Join(err, <-sent, cerr)
	if err == nil && got != total {
		err = fmt.Errorf("ingest floor: drained %d of %d packets", got, total)
	}
	return float64(d) / float64(total), err
}
