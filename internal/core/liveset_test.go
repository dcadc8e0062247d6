package core

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/ppc"
)

// preparePS builds a partitionState with a forced stage assignment from a
// degree-2 partition of src.
func preparePS(t *testing.T, src string, stages int) (*partitionState, *positions) {
	t.Helper()
	prog, err := ppc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := (&Options{Stages: stages}).withDefaults()
	a, err := Analyze(prog, opts.Arch)
	if err != nil {
		t.Fatal(err)
	}
	ws := new(workspace)
	stageOf, _, err := a.assignStages(opts, ws)
	if err != nil {
		t.Fatal(err)
	}
	st := a.newState(opts, stageOf, ws)
	return st, a.ps
}

func TestPositionsReaches(t *testing.T) {
	st, ps := preparePS(t, `pps P { loop {
		var n = pkt_rx();
		if (n > 0) { trace(1); } else { trace(2); }
		trace(3);
	} }`, 2)
	_ = st
	f := ps.f

	// Within a block: earlier index reaches later, not vice versa (entry
	// block is straight-line here).
	entry := f.Blocks[f.Entry]
	if len(entry.Instrs) >= 2 {
		p0 := pos{block: entry.ID, idx: 0}
		p1 := pos{block: entry.ID, idx: 1}
		if !ps.reaches(p0, p1) {
			t.Error("forward intra-block reach missing")
		}
		if ps.reaches(p1, p0) {
			t.Error("backward intra-block reach on acyclic block")
		}
	}
	// Entry reaches every reachable block.
	for _, b := range f.Blocks {
		if b.ID == f.Entry {
			continue
		}
		if !ps.reaches(pos{block: f.Entry, idx: 0}, pos{block: b.ID, idx: 0}) {
			t.Errorf("entry does not reach b%d", b.ID)
		}
	}
}

func TestPositionsReachesAroundLoop(t *testing.T) {
	_, ps := preparePS(t, `pps P { loop {
		var n = pkt_rx();
		var i = 0;
		while[6] (i < 4) { i = i + 1; trace(i); }
		trace(n);
	} }`, 2)
	f := ps.f
	// Find the loop body block (the one with a back edge path to itself).
	for _, b := range f.Blocks {
		if has(ps.from(b.ID), b.ID) && len(b.Instrs) >= 2 {
			// Inside a cycle, a later position reaches an earlier one via
			// the back edge.
			early := pos{block: b.ID, idx: 0}
			late := pos{block: b.ID, idx: len(b.Instrs) - 1}
			if !ps.reaches(late, early) {
				t.Errorf("b%d: wrap-around reach missing", b.ID)
			}
			return
		}
	}
	t.Skip("no self-cyclic block found (loop shape changed)")
}

// TestInterferenceExclusiveArms pins the core packing fact directly at the
// relation level: values defined in exclusive arms with arm-local uses do
// not interfere; values on one path do.
func TestInterferenceExclusiveArms(t *testing.T) {
	src := `pps P { loop {
		var p = pkt_rx();
		if (p > 0) {
			var t2 = hash_crc(p * 11);
			var a1 = hash_crc(t2 ^ 1);
			var a2 = hash_crc(a1 + 2);
			trace(t2 ^ a2);
		} else {
			var t3 = hash_crc(p * 13);
			var b1 = hash_crc(t3 ^ 4);
			var b2 = hash_crc(b1 + 5);
			trace(t3 ^ b2);
		}
	} }`
	st, ps := preparePS(t, src, 2)

	// Collect the cut-1 value objects whose names we recognize.
	ci := st.buildCut(1, ps, nil)
	var vals []object
	for _, o := range ci.objects {
		if !o.isCtrl {
			vals = append(vals, o)
		}
	}
	if len(vals) < 2 {
		t.Skipf("cut carries %d values; shape changed", len(vals))
	}
	// Objects from different arms must not interfere (their defs are not
	// co-reachable). Verify at least one non-interfering pair exists and
	// that packing exploited it.
	nonInterfering := 0
	for i := 0; i < len(vals); i++ {
		for k := i + 1; k < len(vals); k++ {
			if !interferes(st.reachOf(vals[i], 1, ps, nil), st.reachOf(vals[k], 1, ps, nil), ps) {
				nonInterfering++
			}
		}
	}
	if nonInterfering == 0 {
		t.Error("no non-interfering pairs among exclusive-arm values")
	}
	if ci.numSlots >= len(ci.objects) {
		t.Errorf("packing failed: %d slots for %d objects", ci.numSlots, len(ci.objects))
	}
}

// TestDefStageAndCtrlTargets sanity-checks the realization metadata
// helpers used throughout.
func TestDefStageAndCtrlTargets(t *testing.T) {
	st, ps := preparePS(t, `pps P { loop {
		var n = pkt_rx();
		if (n > 0) { trace(1); } else { trace(2); }
	} }`, 2)
	_ = ps
	for b := range st.an.Ctrl {
		targets := st.ctrlTargets(b)
		if st.an.Units[b].IsLoop {
			continue
		}
		term := st.an.Units[b].Instrs[len(st.an.Units[b].Instrs)-1]
		if term.Op == ir.OpBr && len(targets) != 2 {
			t.Errorf("branch unit %d has %d distinct targets, want 2", b, len(targets))
		}
		for _, o := range []object{{isCtrl: true, branch: b}} {
			ds := st.defStage(o)
			if ds != st.stageOf[b] {
				t.Errorf("defStage(co %d) = %d, want %d", b, ds, st.stageOf[b])
			}
		}
	}
}

// cutBeforeTraces realizes src at D=2 with every unit that calls trace or
// pkt_drop, and every unit reading a value such a unit defines, in stage 2
// and the rest in stage 1, so a test chooses which objects cross the cut. The pipeline must
// reproduce the sequential trace.
func cutBeforeTraces(t *testing.T, src string) (*cutInfo, []*ir.Program) {
	t.Helper()
	prog, err := ppc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := (&Options{Stages: 2}).withDefaults()
	a, err := Analyze(prog, opts.Arch)
	if err != nil {
		t.Fatal(err)
	}
	an := a.an
	stageOf := make([]int, len(an.Units))
	for _, u := range an.Units {
		stageOf[u.ID] = 1
		for _, in := range u.Instrs {
			if in.Op == ir.OpCall && (in.Call == "trace" || in.Call == "pkt_drop") {
				stageOf[u.ID] = 2
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for r, def := range an.DataDef {
			for _, u := range an.DataUses[r] {
				if def >= 0 && stageOf[def] == 2 && stageOf[u] == 1 {
					stageOf[u], changed = 2, true
				}
			}
		}
	}
	st := a.newState(opts, stageOf, new(workspace))
	stages, _, err := st.realize()
	if err != nil {
		t.Fatal(err)
	}
	packets := [][]byte{{0, 0, 0}, {1, 0, 0}, {0, 2, 0}, {1, 2, 0}, {9, 9, 9, 9, 9, 9, 9, 9}}
	want, err := interp.RunSequential(prog.Clone(), interp.NewWorld(packets), len(packets))
	if err != nil {
		t.Fatal(err)
	}
	got, err := interp.RunPipeline(stages, interp.NewWorld(packets), len(packets))
	if err != nil {
		t.Fatal(err)
	}
	if diff := interp.TraceEqual(want, got); diff != "" {
		t.Fatalf("pipeline diverges from the sequential program: %s", diff)
	}
	return st.cuts[0], stages
}

// codeWrites counts the control-object constants a stage writes: a coded
// object of a two-way branch writes one, on its non-default target.
func codeWrites(p *ir.Program) int {
	n := 0
	for _, b := range p.Func.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpConst && in.Tx {
				n++
			}
		}
	}
	return n
}

// ctrlSlots returns the slot of each control object crossing ci, in branch
// unit order.
func ctrlSlots(ci *cutInfo) []int {
	var slots []int
	for i, o := range ci.objects {
		if o.isCtrl {
			slots = append(slots, ci.slots[i])
		}
	}
	return slots
}

// Three drop checks: on every path at most one of them drops, so their
// control objects share one slot beside the value's, each coded.
func TestCodedDropChainSharesOneSlot(t *testing.T) {
	ci, stages := cutBeforeTraces(t, `pps P { loop {
		var n = pkt_rx();
		if (n < 4) { pkt_drop(); continue; }
		if (pkt_byte(0) == 1) { pkt_drop(); continue; }
		if (pkt_byte(1) == 2) { pkt_drop(); continue; }
		trace(n);
	} }`)
	slots := ctrlSlots(ci)
	if len(slots) != 3 || slots[1] != slots[0] || slots[2] != slots[0] {
		t.Fatalf("control objects in slots %v, want three in one", slots)
	}
	if ci.numSlots != 2 {
		t.Errorf("%d slots, want 2: the value's and the shared one", ci.numSlots)
	}
	if w := codeWrites(stages[0]); w != 3 {
		t.Errorf("stage 1 writes %d control-object constants, want 3: one code per object", w)
	}
}

// Two branches whose non-default arms (the then-arms) both run on one
// path: their control objects are coded but keep a slot each.
func TestCodedArmsOnOnePathKeepTwoSlots(t *testing.T) {
	ci, stages := cutBeforeTraces(t, `pps P { loop {
		var n = pkt_rx();
		if (pkt_byte(0) == 1) { trace(1); }
		if (pkt_byte(1) == 2) { trace(2); }
		trace(n);
	} }`)
	slots := ctrlSlots(ci)
	if len(slots) != 2 || slots[0] == slots[1] {
		t.Fatalf("control objects in slots %v, want two apart", slots)
	}
	if w := codeWrites(stages[0]); w != 2 {
		t.Errorf("stage 1 writes %d control-object constants, want 2: one code per object", w)
	}
}

// The inner branch's control object is live only in the outer branch's
// else-arm, the value v only in its then-arm: the interference relation
// would let the two share a slot, but a packed colour holds values or
// control objects, never both. The inner object joins the outer branch's in
// a slot of codes, and stage 1 writes one code for each.
func TestCtrlKeepsApartFromValues(t *testing.T) {
	ci, stages := cutBeforeTraces(t, `pps P { loop {
		var n = pkt_rx();
		if (pkt_byte(0) == 1) {
			var v = hash_crc(n);
			trace(v);
		} else {
			if (pkt_byte(1) == 2) { pkt_drop(); continue; }
		}
	} }`)
	valueSlot := -1
	for i, o := range ci.objects {
		if !o.isCtrl {
			valueSlot = ci.slots[i]
		}
	}
	slots := ctrlSlots(ci)
	if valueSlot < 0 || len(slots) != 2 || slots[0] != slots[1] || slots[0] == valueSlot {
		t.Fatalf("value in slot %d, control objects in %v: want the two control objects together, apart from the value", valueSlot, slots)
	}
	if w := codeWrites(stages[0]); w != 2 {
		t.Errorf("stage 1 writes %d control-object constants, want 2: one code per object", w)
	}
}

// A constant stage 1 defines and stage 2 reads does not cross the cut:
// stage 2 keeps its own copy of the const, in the then-arm where the
// analyzed program has it, and sends nothing for it.
func TestConstantsAreMadeWhereRead(t *testing.T) {
	ci, stages := cutBeforeTraces(t, `pps P { loop {
		var n = pkt_rx();
		if (n > 3) { trace(5); }
		trace(n);
	} }`)
	values := 0
	for _, o := range ci.objects {
		if !o.isCtrl {
			values++
		}
	}
	if values != 1 {
		t.Errorf("%d values cross the cut, want 1 (n; the constant 5 stays behind)", values)
	}
	made := 0
	for _, b := range stages[1].Func.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpConst && !in.Tx && in.Imm == 5 {
				made++
			}
		}
	}
	if made != 1 {
		t.Errorf("stage 2 makes the constant 5 %d times, want once:\n%s", made, stages[1].Func)
	}
}
