// Host-native streaming from an ingest source: partition the NPF IPv4
// forwarding PPS and serve packet streams through the goroutine-per-stage
// runtime — fed not from an in-memory slice but through the network-facing
// Source interface (the same front end that serves live sockets and pcap
// replay). A tee at the source boundary captures exactly what the pipeline
// saw, so both acts — a generator serve and a sharded pcap replay — end the
// same way: the served trace is byte-identical to the sequential program run
// over the captured stream.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/ingest"
	"repro/internal/netbench"
)

func main() {
	const degree = 4
	const packets = 50000

	pps, _ := netbench.ByName("IPv4")
	prog, err := pps.Compile()
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := repro.Partition(prog, repro.WithStages(degree))
	if err != nil {
		log.Fatal(err)
	}
	oracle, err := repro.Partition(prog, repro.WithStages(1))
	if err != nil {
		log.Fatal(err)
	}
	// verify replays a captured stream through the degree-1 sequential
	// program and demands a byte-identical trace — the contract every
	// serve below is held to.
	verify := func(captured [][]byte, trace []repro.Event) {
		seq, err := oracle.Run(context.Background(), netbench.NewWorld(captured),
			repro.WithIterations(len(captured)))
		if err != nil {
			log.Fatal(err)
		}
		if diff := repro.TraceEqual(seq, trace); diff != "" {
			log.Fatalf("served trace diverged from the sequential oracle: %s", diff)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// First act: the seeded bursty traffic generator — heavy-tailed flow
	// sizes, on/off arrival bursts — through the ingest front end. The
	// spec string is exactly what ppcc's -source flag takes; Tee captures
	// the stream for the oracle check, and the ingest boundary counters
	// surface in the returned metrics.
	src, err := repro.OpenSource(fmt.Sprintf("gen://ipv4?seed=7&packets=%d", packets))
	if err != nil {
		log.Fatal(err)
	}
	tee := ingest.Tee(src)
	m, err := pipe.Serve(ctx, nil, repro.WithSource(tee),
		repro.WithWorld(netbench.NewWorld(nil)),
		repro.WithBatch(32), repro.WithRing(repro.NNRing, 8))
	if err != nil {
		log.Fatal(err)
	}
	verify(tee.Captured(), m.Trace)

	fmt.Printf("served %d generated packets through %d stages in %v (%.0f pkt/s), trace verified\n",
		m.Packets, degree, m.Elapsed.Round(time.Millisecond), m.PacketsPerSecond())
	fmt.Printf("  ingest: rx %d packets / %d bytes, %d drops, %d decode errors\n",
		m.Ingest.RxPackets, m.Ingest.RxBytes, m.Ingest.Drops, m.Ingest.DecodeErrors)
	for _, s := range m.Stages {
		fmt.Printf("  stage %d: in %6d  out %6d  ring-full stalls %6d  %5.0f ns/iter\n",
			s.Stage, s.In, s.Out, s.Stalls, s.NsPerIteration())
	}

	// Second act: pcap replay, sharded. The checked-in capture streams
	// through the same pipeline with the stateless stages replicated four
	// ways, each replica taking whole batches in turn — the fan-in reads
	// them back in the same turn, so the served trace keeps exact
	// sequential order and the oracle comparison holds verbatim.
	replay, err := repro.OpenSource("pcap://testdata/flows.pcap?loop=4")
	if err != nil {
		log.Fatal(err)
	}
	rtee := ingest.Tee(replay)
	sm, err := pipe.Serve(ctx, nil, repro.WithSource(rtee),
		repro.WithWorld(netbench.NewWorld(nil)),
		repro.WithBatch(32),
		repro.WithShards(4))
	if err != nil {
		log.Fatal(err)
	}
	verify(rtee.Captured(), sm.Trace)
	fmt.Printf("\nreplayed %d captured packets sharded x%d in %v (%.0f pkt/s), trace still byte-identical\n",
		sm.Packets, sm.Shards, sm.Elapsed.Round(time.Millisecond), sm.PacketsPerSecond())
	for _, s := range sm.Stages {
		fmt.Printf("  stage %d: x%d replicas  in %6d  out %6d\n", s.Stage, s.Replicas, s.In, s.Out)
	}
}
