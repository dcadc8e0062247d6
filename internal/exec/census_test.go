package exec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/netbench"
)

// The closure categories of the census: what a cut adds to a stage shows as
// guards (the control-object tests a downstream stage rebuilds control flow
// with), live-set moves, copies and control-object stores.
const (
	catGuard = iota
	catMove
	catCopy
	catStore
	catOther
	ncat
)

var catNames = [ncat]string{"guard", "move", "copy", "store", "other"}

// category sorts one emitted op. sent holds the registers the stage's
// OpSendLS reads: a store-immediate into one of them sets a control object.
// recvd holds those its OpRecvLS writes: a switch on one of them tests
// received control objects — the guards, folded into one switch where the
// objects share a slot.
func category(op *lop, sent, recvd map[int]bool) int {
	switch {
	case op.kind == kGuard, op.kind == kSwitch && (oneCase(op.in) || recvd[int(op.a)]):
		return catGuard
	case op.kind == kSetImm && sent[int(op.dst)]:
		return catStore
	case op.kind != kInstr:
		return catOther
	case op.in.Op == ir.OpRecvLS || op.in.Op == ir.OpSendLS:
		return catMove
	case op.in.Op == ir.OpCopy:
		return catCopy
	}
	return catOther
}

// oneCase reports whether a switch tests one value: the control-predicate
// form a realized stage opens with.
func oneCase(in *ir.Instr) bool {
	for _, c := range in.Cases {
		if c != in.Cases[0] {
			return false
		}
	}
	return len(in.Cases) > 0
}

// census wraps every closure of r so that each call is counted under its
// category in counts. It lowers r's program a second time to learn what
// each closure stands for, walking the ops as compile does.
func census(r *Runner, counts *[ncat]int) {
	lw := new(lowerer)
	lw.lower(r.Prog.Func)
	sent, recvd := map[int]bool{}, map[int]bool{}
	for _, b := range r.Prog.Func.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpSendLS:
				for _, a := range in.Args {
					sent[a] = true
				}
			case ir.OpRecvLS:
				for _, d := range in.Dsts {
					recvd[d] = true
				}
			}
		}
	}
	for num, id := range lw.order {
		lb, bl := lw.blocks[id], &r.blocks[num]
		i := 0
		for k := lb.lo; k < lb.hi; k++ {
			op := &lw.ops[k]
			if op.kind == kDead || lw.guardTail(k, lb.lo) {
				continue
			}
			c := category(op, sent, recvd)
			if op.kind.isTerm() {
				term := bl.term
				bl.term = func(m *Runner, sel []lane) int { counts[c]++; return term(m, sel) }
				continue
			}
			fn := bl.body[i]
			bl.body[i] = func(m *Runner, sel []lane) { counts[c]++; fn(m, sel) }
			i++
		}
	}
}

// TestDispatchCensus counts, per stage of IPv4 at D=1, 2 and 4, the closures
// a 32-packet batch of netbench traffic dispatches, by category: the
// measurement behind EXPERIMENTS' "What a cut costs the host". Run with -v
// for the table. The categories must account for every closure Dispatched
// counts.
func TestDispatchCensus(t *testing.T) {
	pps, ok := netbench.ByName("IPv4")
	if !ok {
		t.Fatal("IPv4 benchmark missing")
	}
	prog, err := pps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	const batches = 8
	var table strings.Builder
	fmt.Fprintf(&table, "closures per %d-packet batch\n| D | stage | %s | total |\n", lanes, strings.Join(catNames[:], " | "))
	for _, d := range []int{1, 2, 4} {
		res, err := core.Partition(prog, core.Options{Stages: d})
		if err != nil {
			t.Fatal(err)
		}
		runners := NewStageRunners(res.Stages, netbench.NewWorld(nil))
		counts := make([][ncat]int, len(runners))
		for k, r := range runners {
			r.RxFromCtx = true
			census(r, &counts[k])
		}
		its := make([]*interp.IterCtx, lanes)
		for l := range its {
			its[l] = interp.NewIterCtx()
			its[l].DeferEvents = true
		}
		in, out := NewBlocks(0, lanes)
		traffic := pps.Traffic(batches * lanes)
		for ; len(traffic) > 0; traffic = traffic[lanes:] {
			for l := range its {
				its[l].Pending, its[l].HasPending = traffic[l], true
			}
			for k, r := range runners {
				if err := r.RunBatch(its, in, out); err != nil {
					t.Fatalf("D=%d stage %d: %v", d, k+1, err)
				}
				in, out = out, in
			}
			for l := range its {
				its[l].Reset()
			}
		}
		var sum [ncat]int
		for k, r := range runners {
			n := 0
			fmt.Fprintf(&table, "| %d | %d |", d, k+1)
			for c, v := range counts[k] {
				n += v
				sum[c] += v
				fmt.Fprintf(&table, " %.1f |", float64(v)/batches)
			}
			fmt.Fprintf(&table, " %.1f |\n", float64(n)/batches)
			if n != r.dispatched {
				t.Errorf("D=%d stage %d: the census counts %d closures, Dispatched %d", d, k+1, n, r.dispatched)
			}
		}
		total := 0
		fmt.Fprintf(&table, "| %d | all |", d)
		for _, v := range sum {
			total += v
			fmt.Fprintf(&table, " %.1f |", float64(v)/batches)
		}
		fmt.Fprintf(&table, " %.1f |\n", float64(total)/batches)
		// Coded control objects write nothing on the all-pass path and
		// share a slot, relayed by one copy: 5 stores and 13 copies a batch
		// at D=4, where one slot per object took 17 and 11.
		if d == 4 && (sum[catStore] > 5*batches || sum[catCopy] > 13*batches) {
			t.Errorf("D=4: %.1f control-object stores and %.1f copies a batch, want at most 5 and 13",
				float64(sum[catStore])/batches, float64(sum[catCopy])/batches)
		}
	}
	t.Log("\n" + table.String())
}
