package costmodel

import (
	"testing"

	"repro/internal/ir"
)

func TestIntrinsicTableConsistency(t *testing.T) {
	for name, intr := range Intrinsics {
		if intr.Name != name {
			t.Errorf("intrinsic %q has Name %q", name, intr.Name)
		}
		if intr.Weight <= 0 {
			t.Errorf("intrinsic %q has non-positive weight", name)
		}
		if intr.NArgs < 0 {
			t.Errorf("intrinsic %q has negative NArgs", name)
		}
	}
}

func TestPure(t *testing.T) {
	if !Intrinsics["csum_fold"].Pure() {
		t.Error("csum_fold should be pure")
	}
	if Intrinsics["pkt_send"].Pure() {
		t.Error("pkt_send should not be pure")
	}
}

func TestPersistentEffects(t *testing.T) {
	for _, name := range []string{"q_put", "q_get", "q_len"} {
		found := false
		for _, e := range Intrinsics[name].Effects {
			if e.Persistent {
				found = true
			}
		}
		if !found {
			t.Errorf("%s should touch a persistent channel", name)
		}
	}
	for _, e := range Intrinsics["pkt_rx"].Effects {
		if e.Persistent {
			t.Error("pkt_rx must not be loop-carried (pipeline preserves per-stage iteration order)")
		}
	}
}

func TestInstrWeightMemory(t *testing.T) {
	a := Default()
	local := &ir.Array{Name: "l", Size: 4}
	persistent := &ir.Array{Name: "p", Size: 4, Persistent: true}
	lw := a.InstrWeight(&ir.Instr{Op: ir.OpLoad, Dst: 0, Args: []int{1}, Arr: local}, NNRing)
	pw := a.InstrWeight(&ir.Instr{Op: ir.OpLoad, Dst: 0, Args: []int{1}, Arr: persistent}, NNRing)
	if lw >= pw {
		t.Errorf("local load weight %d should be below persistent load weight %d", lw, pw)
	}
}

func TestInstrWeightCall(t *testing.T) {
	a := Default()
	w := a.InstrWeight(&ir.Instr{Op: ir.OpCall, Dst: 0, Call: "rt_lookup"}, NNRing)
	if w != Intrinsics["rt_lookup"].Weight {
		t.Errorf("call weight = %d, want %d", w, Intrinsics["rt_lookup"].Weight)
	}
	// Unknown intrinsics default to 1 rather than crashing.
	if got := a.InstrWeight(&ir.Instr{Op: ir.OpCall, Dst: 0, Call: "nope"}, NNRing); got != 1 {
		t.Errorf("unknown call weight = %d, want 1", got)
	}
}

func TestTxWeight(t *testing.T) {
	a := Default()
	if got := a.TxWeight(NNRing, 0); got != 0 {
		t.Errorf("empty transmission should be free, got %d", got)
	}
	nn := a.TxWeight(NNRing, 4)
	scratch := a.TxWeight(ScratchRing, 4)
	if nn >= scratch {
		t.Errorf("NN ring (%d) should be cheaper than scratch ring (%d)", nn, scratch)
	}
	if a.TxWeight(NNRing, 8) <= nn {
		t.Error("transmission cost should grow with word count")
	}
}

// TestInstrWeightChannel: a live-set transmission weighs TxWeight of its
// slot count over the channel it is asked about — sends count Args,
// receives Dsts — and no other instruction depends on the channel.
func TestInstrWeightChannel(t *testing.T) {
	a := Default()
	send := &ir.Instr{Op: ir.OpSendLS, Args: []int{1, 2, 3}}
	recv := &ir.Instr{Op: ir.OpRecvLS, Dsts: []int{1, 2}}
	add := &ir.Instr{Op: ir.OpAdd, Dst: 0, Args: []int{1, 2}}
	for _, ch := range []ChannelKind{NNRing, ScratchRing} {
		if got, want := a.InstrWeight(send, ch), a.TxWeight(ch, 3); got != want {
			t.Errorf("%s: sendls weight = %d, want %d", ch, got, want)
		}
		if got, want := a.InstrWeight(recv, ch), a.TxWeight(ch, 2); got != want {
			t.Errorf("%s: recvls weight = %d, want %d", ch, got, want)
		}
		if got := a.InstrWeight(add, ch); got != 1 {
			t.Errorf("%s: add weight = %d, want 1", ch, got)
		}
	}
}

func TestChannelKindString(t *testing.T) {
	if NNRing.String() != "nn" || ScratchRing.String() != "scratch" {
		t.Error("ChannelKind.String wrong")
	}
}
