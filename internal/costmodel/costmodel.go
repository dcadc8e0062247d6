// Package costmodel defines the target-architecture cost tables used by the
// pipelining transformation: per-instruction weights (the paper's node
// weight function, instruction count), live-set transmission costs (the
// paper's VCost/CCost flow-network capacities), and inter-stage channel
// parameters (nearest-neighbor rings vs scratch rings on the IXP).
//
// The paper notes that because network processors must statically guarantee
// performance, these costs are statically determinable; this package is the
// single place they live.
package costmodel

import (
	"fmt"
	"slices"

	"repro/internal/ir"
)

// Effect describes one side effect of an intrinsic on a named channel.
// Two intrinsic calls conflict (must stay ordered within an iteration) when
// they touch the same channel and at least one writes. If the channel is
// persistent, a write additionally induces a PPS-loop-carried dependence,
// which forces every access to that channel into a single pipeline stage.
type Effect struct {
	Channel    string
	Write      bool
	Persistent bool
}

// Intrinsic describes a runtime primitive callable from PPC programs.
type Intrinsic struct {
	Name      string
	NArgs     int
	HasResult bool
	Weight    int // instruction count on the target PE
	// Latency is the unhidden-latency cost in cycles (issue plus memory
	// wait), used by the WeightLatency mode — the paper's future-work
	// extension of the weight function to IO latency distribution (§6).
	Latency int
	Effects []Effect
}

// Pure reports whether the intrinsic has no effects (safe to reorder,
// dead-code eliminate, and duplicate).
func (i *Intrinsic) Pure() bool { return len(i.Effects) == 0 }

// Channel effect shorthands used by the intrinsic table.
var (
	pktR   = Effect{Channel: "pkt", Write: false}
	pktW   = Effect{Channel: "pkt", Write: true}
	metaR  = Effect{Channel: "meta", Write: false}
	metaW  = Effect{Channel: "meta", Write: true}
	txW    = Effect{Channel: "tx", Write: true}
	rtR    = Effect{Channel: "rt", Write: false}
	queueW = Effect{Channel: "queue", Write: true, Persistent: true}
	queueR = Effect{Channel: "queue", Write: false, Persistent: true}
)

// Intrinsics is the table of runtime primitives. Weights approximate the
// IXP microengine instruction counts of each operation (memory operations
// cost more than ALU operations; latency itself is assumed hidden by the
// eight hardware threads, per the paper's choice of instruction count as
// the weight function).
var Intrinsics = map[string]*Intrinsic{
	// Packet buffer access (per-iteration packet in DRAM).
	"pkt_rx":      {Name: "pkt_rx", NArgs: 0, HasResult: true, Weight: 12, Latency: 150, Effects: []Effect{pktW}},
	"pkt_len":     {Name: "pkt_len", NArgs: 0, HasResult: true, Weight: 2, Latency: 2, Effects: []Effect{pktR}},
	"pkt_byte":    {Name: "pkt_byte", NArgs: 1, HasResult: true, Weight: 3, Latency: 90, Effects: []Effect{pktR}},
	"pkt_word":    {Name: "pkt_word", NArgs: 1, HasResult: true, Weight: 3, Latency: 90, Effects: []Effect{pktR}},
	"pkt_setbyte": {Name: "pkt_setbyte", NArgs: 2, HasResult: false, Weight: 3, Latency: 90, Effects: []Effect{pktW}},
	"pkt_setword": {Name: "pkt_setword", NArgs: 2, HasResult: false, Weight: 3, Latency: 90, Effects: []Effect{pktW}},
	"pkt_send":    {Name: "pkt_send", NArgs: 1, HasResult: false, Weight: 10, Latency: 120, Effects: []Effect{pktR, txW}},
	"pkt_drop":    {Name: "pkt_drop", NArgs: 0, HasResult: false, Weight: 2, Latency: 10, Effects: []Effect{txW}},

	// Packet descriptor (metadata) words.
	"meta_get": {Name: "meta_get", NArgs: 1, HasResult: true, Weight: 1, Latency: 3, Effects: []Effect{metaR}},
	"meta_set": {Name: "meta_set", NArgs: 2, HasResult: false, Weight: 1, Latency: 3, Effects: []Effect{metaW}},

	// Route table lookups (read-only shared state; longest-prefix match).
	"rt_lookup":  {Name: "rt_lookup", NArgs: 1, HasResult: true, Weight: 40, Latency: 320, Effects: []Effect{rtR}},
	"rt6_lookup": {Name: "rt6_lookup", NArgs: 2, HasResult: true, Weight: 60, Latency: 480, Effects: []Effect{rtR}},

	// Pure helpers.
	"csum_fold": {Name: "csum_fold", NArgs: 1, HasResult: true, Weight: 4, Latency: 4},
	"hash_crc":  {Name: "hash_crc", NArgs: 1, HasResult: true, Weight: 6, Latency: 6},

	// Persistent packet queues (flow state: QM and Scheduler territory).
	"q_put": {Name: "q_put", NArgs: 2, HasResult: false, Weight: 12, Latency: 130, Effects: []Effect{queueW}},
	"q_get": {Name: "q_get", NArgs: 1, HasResult: true, Weight: 12, Latency: 130, Effects: []Effect{queueW}},
	"q_len": {Name: "q_len", NArgs: 1, HasResult: true, Weight: 4, Latency: 100, Effects: []Effect{queueR}},

	// Observable trace output (used by tests and examples). It shares the
	// "tx" ordering channel with pkt_send/pkt_drop so that the program's
	// observable event stream keeps its order under pipelining.
	"trace": {Name: "trace", NArgs: 1, HasResult: false, Weight: 1, Latency: 1, Effects: []Effect{txW}},
}

// Use is what one instruction does to the state a stage may carry from one
// packet to the next, and to the packet and the event stream, as the
// intrinsic table and the array descriptor tell it. Every analysis that
// decides a stage's state — validation, and through Carries exec's
// batching and the shard plan — reads it, so a new intrinsic is classified
// by its table entry alone.
type Use struct {
	Arr   *ir.Array // the persistent array a load or store touches
	Chan  string    // the persistent channel a call touches ("" if none)
	Write bool      // it stores to Arr or writes Chan
	Rx    bool      // it receives the packet: writes the packet and returns a value (its length)
	PktW  bool      // it may change the packet buffer
	Tx    bool      // it writes the tx channel: an observable event
}

// Carries names the state the instruction keeps from one iteration to the
// next, or returns "": a store to a persistent array, or any use of a
// persistent channel (a queue). The partitioner pins a PPS-loop-carried
// dependence's whole SCC to one stage, so a stage with no such instruction
// carries nothing between iterations: an array it only loads is a constant
// table, because no other stage stores to it either.
func (u Use) Carries() string {
	switch {
	case u.Arr != nil && u.Write:
		return "persistent array " + u.Arr.Name
	case u.Chan != "":
		return u.Chan
	}
	return ""
}

// UseOf reads one instruction's Use.
func UseOf(in *ir.Instr) Use {
	switch in.Op {
	case ir.OpLoad, ir.OpStore:
		if in.Arr != nil && in.Arr.Persistent {
			return Use{Arr: in.Arr, Write: in.Op == ir.OpStore}
		}
	case ir.OpCall:
		intr := Intrinsics[in.Call]
		if intr == nil {
			return Use{}
		}
		var u Use
		for _, e := range intr.Effects {
			switch {
			case e.Persistent:
				u.Chan, u.Write = e.Channel, u.Write || e.Write
			case e.Channel == pktW.Channel:
				u.PktW = u.PktW || e.Write
			case e.Channel == txW.Channel:
				u.Tx = u.Tx || e.Write
			}
		}
		u.Rx = u.PktW && intr.HasResult
		return u
	}
	return Use{}
}

// CheckConfined enforces the paper's first partitioning rule on a stage
// list: state one packet leaves for the next lives in one stage. A
// persistent array that some stage stores to, and a persistent channel that
// some stage writes, is used by that stage only; state no stage writes is
// constant, and any stage may read it.
func CheckConfined(stages []*ir.Program) error {
	type state struct {
		id, first, writer int    // array ID (-1: a channel); the first stage using it; the stage writing it (-1: none yet)
		ch                string // channel name ("" for an array)
	}
	var seen []state
	for k, s := range stages {
		for _, b := range s.Func.Blocks {
			for _, in := range b.Instrs {
				u, id := UseOf(in), -1
				if u.Arr != nil {
					id = u.Arr.ID
				} else if u.Chan == "" {
					continue
				}
				i := slices.IndexFunc(seen, func(st state) bool { return st.id == id && st.ch == u.Chan })
				if i < 0 {
					i, seen = len(seen), append(seen, state{id: id, first: k, writer: -1, ch: u.Chan})
				}
				st, writer, other := &seen[i], -1, k
				switch {
				case u.Write && st.first != k:
					writer, other = k, st.first
				case u.Write:
					st.writer = k
				case st.writer != k:
					writer = st.writer
				}
				switch {
				case writer < 0:
				case u.Arr != nil:
					return fmt.Errorf("persistent array %s stored to by stage %d and used by stage %d", u.Arr.Name, writer+1, other+1)
				default:
					return fmt.Errorf("persistent channel %q written by stage %d and used by stage %d", u.Chan, writer+1, other+1)
				}
			}
		}
	}
	return nil
}

// ChannelKind selects the physical inter-stage communication channel.
type ChannelKind int

const (
	// NNRing is the register-based nearest-neighbor ring: a few cycles per
	// word, available only between adjacent processing engines.
	NNRing ChannelKind = iota
	// ScratchRing lives in scratch memory: ~100 cycles per ring operation,
	// usable between any two engines.
	ScratchRing
)

// String returns the ring kind's short name ("nn" or "scratch").
func (k ChannelKind) String() string {
	if k == NNRing {
		return "nn"
	}
	return "scratch"
}

// ChannelCost gives the instruction cost of one unified live-set
// transmission over a channel: Overhead per ring operation plus PerWord per
// transmitted word, on each side (send and receive).
type ChannelCost struct {
	Overhead int
	PerWord  int
}

// WeightMode selects what the balance weight function measures.
type WeightMode int

const (
	// WeightInstrs balances static instruction counts — the paper's
	// production choice ("instruction count is used because the latency is
	// optimized and hidden through multi-threading, and because code size
	// reduction is an important secondary goal").
	WeightInstrs WeightMode = iota
	// WeightLatency balances unhidden IO latency instead — the extension
	// the paper proposes as future work (§6): distributing memory and IO
	// latency over the pipeline stages so each engine's hardware threads
	// have comparable latency to hide.
	WeightLatency
)

// String returns the weight mode's short name ("instrs" or "latency").
func (m WeightMode) String() string {
	if m == WeightLatency {
		return "latency"
	}
	return "instrs"
}

// Arch bundles every architecture-specific constant.
type Arch struct {
	// Mode selects the balance weight function.
	Mode WeightMode

	// VCost and CCost are the flow-network capacities for cutting a
	// variable or control object definition edge (paper section 3.2.2).
	VCost int64
	CCost int64

	// Channel costs by kind.
	NN      ChannelCost
	Scratch ChannelCost

	// LocalMemWeight and SharedMemWeight are instruction weights for
	// loads/stores to local (per-iteration) and persistent (SRAM-resident)
	// arrays; the *Latency variants are the WeightLatency-mode costs.
	LocalMemWeight   int
	SharedMemWeight  int
	LocalMemLatency  int
	SharedMemLatency int

	// DefaultLoopBound is the worst-case trip count assumed for inner
	// loops that carry no loop[n] annotation.
	DefaultLoopBound int
}

// Default returns the cost model used throughout the experiments; it
// approximates the IXP2800 described in the paper.
func Default() *Arch {
	return &Arch{
		VCost:            2,
		CCost:            2,
		NN:               ChannelCost{Overhead: 2, PerWord: 1},
		Scratch:          ChannelCost{Overhead: 10, PerWord: 2},
		LocalMemWeight:   2,
		SharedMemWeight:  6,
		LocalMemLatency:  20,
		SharedMemLatency: 100,
		DefaultLoopBound: 8,
	}
}

// InstrWeight returns the weight of one IR instruction under the
// architecture's weight mode: instruction count (the paper's default) or
// unhidden IO latency (the paper's future-work extension). The live-set
// transmission pseudo-ops weigh TxWeight of their slot count over channel
// ch. It is the one weight function: balancing, path costs and the
// simulators all read it.
func (a *Arch) InstrWeight(in *ir.Instr, ch ChannelKind) int {
	switch in.Op {
	case ir.OpPhi:
		// A phi materializes as (at most) one copy per path after
		// out-of-SSA conversion; count it as one instruction.
		return 1
	case ir.OpLoad, ir.OpStore:
		if in.Arr != nil && in.Arr.Persistent {
			if a.Mode == WeightLatency {
				return a.SharedMemLatency
			}
			return a.SharedMemWeight
		}
		if a.Mode == WeightLatency {
			return a.LocalMemLatency
		}
		return a.LocalMemWeight
	case ir.OpCall:
		if intr, ok := Intrinsics[in.Call]; ok {
			if a.Mode == WeightLatency && intr.Latency > 0 {
				return intr.Latency
			}
			return intr.Weight
		}
		return 1
	case ir.OpSendLS:
		return a.TxWeight(ch, len(in.Args))
	case ir.OpRecvLS:
		return a.TxWeight(ch, len(in.Dsts))
	default:
		return 1
	}
}

// TxWeight returns the instruction cost of sending (or receiving) a unified
// live set of n words over the given channel kind.
func (a *Arch) TxWeight(kind ChannelKind, nWords int) int {
	c := a.NN
	if kind == ScratchRing {
		c = a.Scratch
	}
	if nWords == 0 {
		return 0
	}
	return c.Overhead + c.PerWord*nWords
}
