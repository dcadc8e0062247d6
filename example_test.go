package repro_test

import (
	"context"
	"errors"
	"fmt"

	"repro"
)

// Example_sentinelErrors shows the error-handling idiom the whole API
// supports: every entry point wraps one of the typed sentinels grouped in
// options.go, so a single errors.Is distinguishes failure modes no matter
// which call or option produced them.
func Example_sentinelErrors() {
	prog := repro.MustCompile(`pps P { loop {
		var n = pkt_rx();
		trace(n & 0xFF);
		pkt_send(0);
	} }`)

	// An out-of-range degree, whichever entry point sees it.
	_, err := repro.Partition(prog, repro.WithStages(-1))
	fmt.Println("bad degree:", errors.Is(err, repro.ErrBadOption))

	// An option applied outside its scope (the matrix on Option).
	pipe, _ := repro.Partition(prog, repro.WithStages(2))
	_, err = pipe.Serve(context.Background(),
		repro.PacketSource([][]byte{{1}}), repro.WithIterations(8))
	fmt.Println("out of scope:", errors.Is(err, repro.ErrConflictingOptions))

	// A negative batch, caught when Serve assembles its configuration.
	_, err = pipe.Serve(context.Background(),
		repro.PacketSource([][]byte{{1}}), repro.WithBatch(-1))
	fmt.Println("bad batch:", errors.Is(err, repro.ErrBadOption))
	// Output:
	// bad degree: true
	// out of scope: true
	// bad batch: true
}

// ExamplePartition pipelines the paper's figure-2 program (MyPPS2) two
// ways and shows that the observable behaviour is unchanged while the work
// is split across two stages.
func ExamplePartition() {
	src := `pps MyPPS2 {
		loop {
			var p = pkt_rx();
			var x = 0;
			var y = 0;
			var z = 0;
			if (p > 0) {
				x = p * 3;
				y = p * 5;
				z = x * y;
			} else {
				x = p - 7;
				y = p ^ 0x55;
				z = x + y;
			}
			trace(z);
		}
	}`
	prog, err := repro.Compile(src)
	if err != nil {
		panic(err)
	}
	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		panic(err)
	}

	packets := [][]byte{{1, 2, 3}, {}}
	oracle, _ := repro.Partition(prog, repro.WithStages(1))
	seq, _ := oracle.Run(context.Background(), repro.NewWorld(packets))
	got, _ := pipe.Run(context.Background(), repro.NewWorld(packets))

	fmt.Println("stages:", pipe.Degree())
	fmt.Println("equivalent:", repro.TraceEqual(seq, got) == "")
	fmt.Println("events:", len(got))
	// Output:
	// stages: 2
	// equivalent: true
	// events: 2
}

// ExamplePipeline_Serve streams packets through the concurrent host
// runtime: one goroutine per stage, bounded rings between neighbors, exact
// sequential behaviour.
func ExamplePipeline_Serve() {
	prog := repro.MustCompile(`pps Fwd { loop {
		var n = pkt_rx();
		if (n < 0) { continue; }
		trace(hash_crc(n) & 0xFF);
		pkt_send(n & 1);
	} }`)
	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		panic(err)
	}

	packets := [][]byte{{10}, {20, 21}, {30, 31, 32}}
	m, err := pipe.Serve(context.Background(), repro.PacketSource(packets),
		repro.WithRing(repro.NNRing, 8))
	if err != nil {
		panic(err)
	}
	oracle, _ := repro.Partition(prog, repro.WithStages(1))
	seq, _ := oracle.Run(context.Background(), repro.NewWorld(packets))

	fmt.Println("packets:", m.Packets)
	fmt.Println("stages measured:", len(m.Stages))
	fmt.Println("oracle order:", repro.TraceEqual(seq, m.Trace) == "")
	// Output:
	// packets: 3
	// stages measured: 2
	// oracle order: true
}

// ExamplePipeline_Snapshot inspects a serve run through the observability
// API: Snapshot is race-free at any moment (here, after completion, so the
// output is deterministic), and an attached Observer collects per-stage
// metrics into a Registry.
func ExamplePipeline_Snapshot() {
	prog := repro.MustCompile(`pps Fwd { loop {
		var n = pkt_rx();
		trace(n + 1);
		pkt_send(0);
	} }`)
	pipe, err := repro.Partition(prog, repro.WithStages(2))
	if err != nil {
		panic(err)
	}

	// Every cut kept, so both stages are served and each books its own
	// counters (a stage fused into its neighbor reports StageStats.FusedInto).
	reg := repro.NewRegistry()
	packets := [][]byte{{1}, {2}, {3}, {4}}
	if _, err := pipe.Serve(context.Background(), repro.PacketSource(packets),
		repro.WithFusion(repro.FusionOff),
		repro.WithObserver(&repro.Observer{Registry: reg})); err != nil {
		panic(err)
	}

	// While Serve is in flight, Snapshot can be polled from any goroutine;
	// after it returns, the snapshot is frozen at the final counters.
	s := pipe.Snapshot()
	fmt.Println("running:", s.Running)
	fmt.Println("packets:", s.Packets)
	for _, st := range s.Stages {
		fmt.Printf("stage %d: in=%d out=%d\n", st.Stage, st.In, st.Out)
	}
	fmt.Println("registry packets:", reg.Snapshot()["pipeline.packets"])
	// Output:
	// running: false
	// packets: 4
	// stage 1: in=4 out=4
	// stage 2: in=4 out=4
	// registry packets: 4
}

// ExampleCompile shows the diagnostics the PPC front end produces.
func ExampleCompile() {
	_, err := repro.Compile(`pps P { loop { trace(undefined_name); } }`)
	fmt.Println(err)
	// Output:
	// 1:22: undefined: undefined_name
}
