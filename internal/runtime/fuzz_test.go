package runtime_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/netbench"
	"repro/internal/ppc"
	"repro/internal/randprog"
	"repro/internal/runtime"
)

// FuzzServeVsOracle is the differential-fuzz half of the harness: the fuzz
// input seeds the random-program generator, the generated program is
// partitioned and served concurrently, and every streaming trace must be
// byte-identical to the sequential oracle's (interp.RunSequential on the
// unpartitioned program). Inputs that do not yield
// a servable pipeline (no single pkt_rx pacing site, or an unpartitionable
// shape at the probed degree) are skipped rather than failed, mirroring the
// grammar-fuzzer convention in internal/ppc. Seeds that exposed a
// divergence during development are checked into testdata/fuzz so every
// future run replays them.
//
// Each (degree, batch) point is served twice: fully ringed and coarsened by
// a seed-derived fusion mask (CoarseLayout, taken as is), so the re-realized
// programs — including ones merged across what was a shard junction — face
// the same byte-identical-trace bar as the ringed ones.
func FuzzServeVsOracle(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := randprog.Generate(seed, randprog.DefaultConfig())
		prog, err := ppc.Compile(src)
		if err != nil {
			t.Skipf("seed %d: not compilable: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		// Shard width is derived from the seed so the corpus also exercises
		// the batch rotation, junction wiring, and fan-in order.
		shards := 1 << (rng.Intn(3))
		packets := make([][]byte, 3+rng.Intn(4))
		for i := range packets {
			p := make([]byte, rng.Intn(16))
			rng.Read(p)
			packets[i] = p
		}
		iters := len(packets)
		// A seed-derived per-cut fusion mask (bit k fuses cut k). Drawn after
		// the packet bytes so earlier corpus seeds keep their exact traffic.
		fuseBits := rng.Uint64()

		seq, err := interp.RunSequential(prog.Clone(), interp.NewWorld(packets), iters)
		if err != nil {
			t.Skipf("seed %d: oracle rejects program: %v", seed, err)
		}
		for _, d := range []int{2, 4} {
			res, err := core.Partition(prog, core.Options{Stages: d})
			if err != nil {
				continue // not partitionable at this degree
			}
			if runtime.Validate(res.Stages) != nil {
				continue // not servable (e.g. no pkt_rx pacing point)
			}
			for _, batch := range []int{1, 2} {
				for fi, fuse := range []uint64{0, fuseBits} {
					tag := []string{"ringed", "fused"}[fi]
					cfg := runtime.Config{}
					cfg.Batch = batch
					cfg.Shards = shards
					l, err := runtime.CoarseLayout(res, fuse, false, cfg)
					if err != nil {
						t.Fatalf("seed %d D=%d P=%d batch=%d %s: layout: %v\n%s", seed, d, shards, batch, tag, err, src)
					}
					m, err := l.Serve(context.Background(), interp.NewWorld(nil), runtime.Packets(packets))
					if err != nil {
						t.Fatalf("seed %d D=%d P=%d batch=%d %s: serve: %v\n%s", seed, d, shards, batch, tag, err, src)
					}
					if m.Packets != int64(iters) {
						t.Fatalf("seed %d D=%d P=%d batch=%d %s: served %d packets, want %d\n%s",
							seed, d, shards, batch, tag, m.Packets, iters, src)
					}
					if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
						t.Fatalf("seed %d D=%d P=%d batch=%d %s: trace diverges from oracle: %s\nsource:\n%s",
							seed, d, shards, batch, tag, diff, src)
					}
					if rep := m.Faults; rep.Accounted() != m.Stages[0].In {
						t.Fatalf("seed %d D=%d P=%d batch=%d %s: accounting hole: %s", seed, d, shards, batch, tag, rep)
					}
				}
			}
		}
	})
}

// FuzzCompilePartition mutates the six netbench PPS sources, the programs
// the paper's figures cut. A mutant that compiles and runs sequentially is
// cut at D=2..5; each cut must reproduce the sequential trace on the
// interpreter's pipeline (interp.RunPipeline) and when served by the
// streaming runtime. Mutants that do not compile, that the oracle rejects,
// or that a degree cannot cut or serve are skipped, as in FuzzServeVsOracle.
func FuzzCompilePartition(f *testing.F) {
	for _, name := range []string{"RX", "IPv4", "Scheduler", "QM", "TX", "IP(v4)"} {
		pps, ok := netbench.ByName(name)
		if !ok {
			f.Fatalf("unknown PPS %q", name)
		}
		f.Add(pps.Source)
	}
	traffic := append(netbench.IPv4Stream(6), netbench.MixedStream(6)...)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ppc.Compile(src)
		if err != nil {
			t.Skip("not compilable")
		}
		seq, err := interp.RunSequential(prog.Clone(), netbench.NewWorld(traffic), len(traffic))
		if err != nil {
			t.Skipf("oracle rejects program: %v", err)
		}
		a, err := core.Analyze(prog, nil)
		if err != nil {
			t.Skipf("not analyzable: %v", err)
		}
		for d := 2; d <= 5; d++ {
			res, err := a.Partition(core.Options{Stages: d})
			if err != nil {
				continue // not partitionable at this degree
			}
			got, err := interp.RunPipeline(res.Stages, netbench.NewWorld(traffic), len(traffic))
			if err != nil {
				t.Fatalf("D=%d: pipeline: %v\n%s", d, err, src)
			}
			if diff := interp.TraceEqual(seq, got); diff != "" {
				t.Fatalf("D=%d: pipeline diverges from oracle: %s\n%s", d, diff, src)
			}
			if runtime.Validate(res.Stages) != nil {
				continue // not servable (e.g. no pkt_rx pacing point)
			}
			m, err := runtime.Serve(context.Background(), res.Stages, netbench.NewWorld(nil), runtime.Packets(traffic), runtime.Config{})
			if err != nil {
				t.Fatalf("D=%d: serve: %v\n%s", d, err, src)
			}
			if diff := interp.TraceEqual(seq, m.Trace); diff != "" {
				t.Fatalf("D=%d: served trace diverges from oracle: %s\n%s", d, diff, src)
			}
		}
	})
}
