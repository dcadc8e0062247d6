package core_test

import (
	"fmt"
	"strings"
	"testing"

	. "repro/internal/core"
	"repro/internal/graph"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
	"repro/internal/ppc"
)

// TestRelayedValuesAcrossThreeStages covers the relay path: a value defined
// in stage 1 and consumed only in stage 3 must travel through stage 2's
// unified transmissions.
func TestRelayedValuesAcrossThreeStages(t *testing.T) {
	src := `pps P { loop {
		var early = pkt_rx();
		var m1 = hash_crc(early * 3);
		var m2 = hash_crc(m1 ^ 7);
		var m3 = hash_crc(m2 + m1);
		var m4 = hash_crc(m3 ^ m2);
		trace(early + m4);
	} }`
	checkEquivalent(t, src, [][]byte{{1}, {2, 2}, {}, {5, 5, 5}}, 5, 3, 4, 5)
}

// TestRelayedExclusiveArms: values defined in exclusive arms upstream and
// consumed two stages later exercise the relay-aware packing rules.
func TestRelayedExclusiveArms(t *testing.T) {
	src := `pps P { loop {
		var p = pkt_rx();
		var a = 0;
		var b = 0;
		if (p > 0) { a = hash_crc(p); } else { b = hash_crc(p - 9); }
		var pad1 = hash_crc(p ^ 1);
		var pad2 = hash_crc(pad1 + 2);
		var pad3 = hash_crc(pad2 ^ 3);
		if (p > 0) { trace(a + pad3); } else { trace(b * pad3); }
	} }`
	checkEquivalent(t, src, [][]byte{{7}, {}, {1, 1}, {9, 9, 9}}, 6, 2, 3, 4)
}

// TestNestedLoopsStayWhole: a loop nest is a single CFG SCC, hence one
// placement unit.
func TestNestedLoopsStayWhole(t *testing.T) {
	src := `pps P { loop {
		var n = pkt_rx();
		var acc = 0;
		for[5] (var i = 0; i < 3; i = i + 1) {
			for[5] (var j = 0; j < 3; j = j + 1) {
				acc = acc + i * j + pkt_byte(i + j);
			}
		}
		trace(acc);
		trace(acc ^ n);
	} }`
	checkEquivalent(t, src, [][]byte{{1, 2, 3, 4}, {9, 8, 7}}, 3, 2, 3)
}

// TestTwoSequentialLoops: independent inner loops are distinct units and
// may land in different stages.
func TestTwoSequentialLoops(t *testing.T) {
	src := `pps P { loop {
		var n = pkt_rx();
		var s1 = 0;
		for[6] (var i = 0; i < 4; i = i + 1) { s1 = s1 + pkt_byte(i); }
		var s2 = 0;
		for[6] (var j = 0; j < 4; j = j + 1) { s2 = s2 * 2 + j; }
		trace(s1);
		trace(s2 + n);
	} }`
	prog, err := ppc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(prog, Options{Stages: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Count loops per stage: block CFGs with cycles.
	loopsIn := func(f *ir.Func) int {
		if _, acyclic := f.CFG().Topo(); acyclic {
			return 0
		}
		return 1
	}
	total := 0
	for _, s := range res.Stages {
		total += loopsIn(s.Func)
	}
	if total < 2 {
		t.Logf("stage funcs:\n%s\n%s", res.Stages[0].Func, res.Stages[1].Func)
		t.Errorf("expected both loops present across stages")
	}
	checkEquivalent(t, src, [][]byte{{1, 2, 3, 4, 5}}, 2, 2, 3)
}

// TestLoopFollowedByDependentBranch: the multi-exit-loop control object
// must steer downstream stages through the landing pads.
func TestLoopProducesControlForDownstream(t *testing.T) {
	src := `pps P { loop {
		var n = pkt_rx();
		var i = 0;
		var found = 0;
		while[10] (i < 6) {
			if (pkt_byte(i) == 9) { found = 1; break; }
			if (pkt_byte(i) == 8) { found = 2; break; }
			i = i + 1;
		}
		var tail1 = hash_crc(n);
		var tail2 = hash_crc(tail1 ^ found);
		switch (found) {
		case 0: trace(tail2);
		case 1: trace(-tail2);
		default: trace(tail2 * 3);
		}
	} }`
	checkEquivalent(t, src,
		[][]byte{{1, 9, 3}, {8}, {1, 2, 3, 4, 5, 6, 7}, {}}, 5, 2, 3, 4)
}

// TestDeepNesting: four levels of control nesting exercise transitive
// control-object closure.
func TestDeepNesting(t *testing.T) {
	src := `pps P { loop {
		var n = pkt_rx();
		if (n > 0) {
			if (n > 2) {
				if (n > 4) {
					if (n > 6) { trace(4); } else { trace(3); }
				} else { trace(2); }
			} else { trace(1); }
		} else { trace(0); }
		trace(n * 11);
	} }`
	pk := func(n int) []byte { return make([]byte, n) }
	checkEquivalent(t, src,
		[][]byte{pk(1), pk(3), pk(5), pk(7), {}, pk(2)}, 7, 2, 3, 4, 5)
}

// TestStageFunctionsAreWellFormed: every realized stage must verify and
// contain matching send/recv plumbing.
func TestStageFunctionsAreWellFormed(t *testing.T) {
	prog, err := ppc.Compile(paperExample)
	if err != nil {
		t.Fatal(err)
	}
	const D = 4
	res, err := Partition(prog, Options{Stages: D})
	if err != nil {
		t.Fatal(err)
	}
	for k, sp := range res.Stages {
		if err := sp.Func.Verify(ir.VerifyMutable); err != nil {
			t.Fatalf("stage %d invalid: %v", k+1, err)
		}
		var sends, recvs []*ir.Instr
		for _, b := range sp.Func.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpSendLS:
					sends = append(sends, in)
				case ir.OpRecvLS:
					recvs = append(recvs, in)
				}
			}
		}
		if k > 0 && len(recvs) != 1 {
			t.Errorf("stage %d has %d receives, want 1", k+1, len(recvs))
		}
		if k == 0 && len(recvs) != 0 {
			t.Errorf("stage 1 must not receive")
		}
		if k < D-1 && len(sends) != 1 {
			t.Errorf("stage %d has %d sends, want 1", k+1, len(sends))
		}
		if k == D-1 && len(sends) != 0 {
			t.Errorf("last stage must not send")
		}
		if !strings.Contains(sp.Func.Name, "stage") {
			t.Errorf("stage function name %q lacks stage suffix", sp.Func.Name)
		}
	}
	// Consecutive slot widths must agree.
	for k := 0; k+1 < D; k++ {
		var sendW, recvW int
		for _, b := range res.Stages[k].Func.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpSendLS {
					sendW = len(in.Args)
				}
			}
		}
		for _, b := range res.Stages[k+1].Func.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpRecvLS {
					recvW = len(in.Dsts)
				}
			}
		}
		if sendW != recvW {
			t.Errorf("cut %d: send width %d != recv width %d", k+1, sendW, recvW)
		}
	}
}

// TestManyStagesOnTinyProgram: degrees far beyond the unit count must not
// break (trailing stages may be empty).
func TestManyStagesOnTinyProgram(t *testing.T) {
	checkEquivalent(t, `pps P { loop { trace(pkt_rx()); } }`,
		[][]byte{{1}, {2}}, 3, 8, 12)
}

// TestMetaChannelOrdering: descriptor writes and reads must stay ordered
// across stages.
func TestMetaChannelOrdering(t *testing.T) {
	src := `pps P { loop {
		var n = pkt_rx();
		meta_set(0, n * 2);
		var a = meta_get(0);
		meta_set(0, a + 1);
		var b = meta_get(0);
		trace(b);
	} }`
	checkEquivalent(t, src, [][]byte{{3}, {4, 4}}, 3, 2, 3, 4)
}

// TestDoWhilePipeline covers the do-loop lowering end to end.
func TestDoWhilePipeline(t *testing.T) {
	src := `pps P { loop {
		var n = pkt_rx();
		var v = n < 0 ? 0 : n;
		do[12] { v = v - 3; } while (v > 0);
		trace(v);
		trace(v * n);
	} }`
	checkEquivalent(t, src, [][]byte{{1, 1, 1, 1, 1, 1, 1}, {1}, {}}, 4, 2, 3)
}

// TestWorldStateInteractionAcrossPartitions: queues written by earlier
// iterations must be observed by later ones identically under pipelining.
func TestWorldStateInteractionAcrossPartitions(t *testing.T) {
	src := `pps P { loop {
		var n = pkt_rx();
		if (n > 0) { q_put(0, n); }
		if (q_len(0) > 2) {
			trace(q_get(0));
			trace(q_get(0));
		}
		trace(q_len(0));
	} }`
	checkEquivalent(t, src,
		[][]byte{{1}, {2, 2}, {3, 3, 3}, {4, 4, 4, 4}, {5}, {}}, 7, 2, 4)
}

// TestPartitionRejectsStructurallyTrappedIR is the API-level counterpart of
// the dep-level check.
func TestPartitionRejectsStructurallyTrappedIR(t *testing.T) {
	f := ir.NewFunc("trap")
	bl := ir.NewBuilder(f)
	trap := f.NewBlock("trap")
	exit := f.NewBlock("exit")
	c := bl.Const(1)
	bl.Br(c, trap, exit)
	bl.SetBlock(trap)
	bl.Jmp(trap)
	bl.SetBlock(exit)
	bl.Ret()
	prog := &ir.Program{Name: "trap", Func: f}
	if _, err := Partition(prog, Options{Stages: 2}); err == nil {
		t.Error("Partition accepted a structurally non-terminating region")
	}
}

// TestTraceOrderWithSends: interleaved trace/send/drop events keep global
// order (they share the tx ordering channel).
func TestTraceOrderWithSends(t *testing.T) {
	src := `pps P { loop {
		var n = pkt_rx();
		trace(1);
		if (n > 1) { pkt_send(0); } else { pkt_drop(); }
		trace(2);
		if (n > 2) { pkt_send(1); }
		trace(3);
	} }`
	checkEquivalent(t, src, [][]byte{{1, 1, 1}, {9}, {}, {5, 5}}, 5, 2, 3, 4)
}

var _ = interp.NewWorld // keep the import for helper reuse

// Two switches on one variable, where a case of the first shares its target
// with the first's default: the second switch's block is reached by that
// case too, so it must not fold into the first, at any degree.
func TestSwitchCaseSharingDefaultStaysSequential(t *testing.T) {
	src := `pps P { loop {
		var n = pkt_rx();
		var x = pkt_byte(0);
		switch (x) { case 1: { pkt_drop(); continue; } case 2: { } }
		switch (x) { case 2: { trace(5); } }
		trace(x);
	} }`
	checkEquivalent(t, src, [][]byte{{0}, {1}, {2}, {3}, {2, 2}}, 5, 1, 2, 3, 4)
}

// TestSingleWriterSlotsAreNotCopied: under packed transmission a slot whose
// objects all come from one register is sent from that register, so for the
// six netbench PPS at D=2..10 no stage holds a transmission copy whose
// destination the stage defines once — such a copy would be the only
// writer of a slot its source could have filled. Every cut still runs, on
// the interpreter, to the sequential program's trace. The serve runtime
// also runs fused units, so every Coarsen unit of every fuse mask at D=2..5
// is held to the same, and no stage or unit without a loop holds any copy
// between two registers it defines once each: exec forwards no copy, and
// such a copy would cost it an op a register rename saves.
func TestSingleWriterSlotsAreNotCopied(t *testing.T) {
	const n = 48
	for _, name := range []string{"RX", "IPv4", "Scheduler", "QM", "TX", "IP(v4)"} {
		pps, _ := netbench.ByName(name)
		prog, err := pps.Compile()
		if err != nil {
			t.Fatal(err)
		}
		a, err := Analyze(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		traffic := pps.Traffic(n)
		seq, err := interp.RunSequential(prog.Clone(), netbench.NewWorld(traffic), n)
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		for d := 2; d <= 10; d++ {
			res, err := a.Partition(Options{Stages: d})
			if err != nil {
				t.Fatalf("%s D=%d: %v", name, d, err)
			}
			for k, s := range res.Stages {
				checkCopies(t, fmt.Sprintf("%s D=%d stage %d", name, d, k+1), s.Func)
			}
			got, err := interp.RunPipeline(res.Stages, netbench.NewWorld(traffic), n)
			if err != nil {
				t.Fatalf("%s D=%d: %v", name, d, err)
			}
			if diff := interp.TraceEqual(seq, got); diff != "" {
				t.Errorf("%s D=%d: %s", name, d, diff)
			}
			for fuse := uint64(0); d <= 5 && fuse < 1<<(d-1); fuse++ {
				units, err := res.Coarsen(fuse)
				if err != nil {
					t.Fatalf("%s D=%d fuse %#x: %v", name, d, fuse, err)
				}
				for _, u := range units {
					checkCopies(t, fmt.Sprintf("%s D=%d fuse %#x unit %d..%d", name, d, fuse, u.First, u.Last), u.Prog.Func)
				}
			}
		}
	}
}

// checkCopies fails on a transmission copy that alone writes its slot, and
// in an acyclic f on any copy whose source and destination f defines once
// each.
func checkCopies(t *testing.T, tag string, f *ir.Func) {
	t.Helper()
	defs := make([]int, f.NumRegs)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, r := range in.Defines() {
				defs[r]++
			}
		}
	}
	_, acyclic := graph.Build(len(f.Blocks), func(add func(u, v int)) {
		for _, b := range f.Blocks {
			for _, s := range b.Succs() {
				add(b.ID, s)
			}
		}
	}).Topo()
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch {
			case in.Op != ir.OpCopy:
			case in.Tx && defs[in.Dst] == 1:
				t.Errorf("%s: b%d: %s writes a slot nothing else writes", tag, b.ID, in)
			case acyclic && defs[in.Dst] == 1 && defs[in.Args[0]] == 1:
				t.Errorf("%s: b%d: %s copies a register defined once into another, in a stage without a loop", tag, b.ID, in)
			}
		}
	}
}
