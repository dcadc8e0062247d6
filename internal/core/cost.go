package core

import (
	"slices"

	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/ir"
)

// PathCost is the paper's performance metric for a (stage) function: the
// worst-case instruction count for processing one packet, with the
// transmission share broken out. Inner loops contribute their body cost
// times the annotated worst-case trip count.
type PathCost struct {
	Total  int64 // instructions on the worst-case path
	Tx     int64 // live-set transmission instructions on that path
	Static int64 // flat static instruction count (code size)
}

// Proc returns the packet-processing share of the worst-case path.
func (c PathCost) Proc() int64 { return c.Total - c.Tx }

// FuncCost computes the worst-case path cost of a function: the longest
// path through the summarized CFG (inner loop nodes weighted by bound times
// their total body cost).
func FuncCost(f *ir.Func, arch *costmodel.Arch, ch costmodel.ChannelKind) PathCost {
	return new(workspace).funcCost(f, arch, ch)
}

// nodeCost is a cost with its transmission share.
type nodeCost struct{ total, tx int64 }

// compCost is what funcCost keeps per CFG component: its own cost, its
// loop bound and whether it is a loop, and the costliest path reaching it.
type compCost struct {
	own, best     nodeCost
	bound         int64
	loop, reached bool
}

// funcCost is FuncCost keeping its per-component records in ws.
func (ws *workspace) funcCost(f *ir.Func, arch *costmodel.Arch, ch costmodel.ChannelKind) PathCost {
	cfg := f.CFG()
	scc := graph.SCC(cfg)
	cond := graph.Condense(cfg, scc)
	cs := scratch(&ws.comps, cond.Len())
	var static int64
	for _, b := range f.Blocks {
		c := &cs[scc.Comp[b.ID]]
		c.loop = c.loop || len(scc.Members[scc.Comp[b.ID]]) > 1 || slices.Contains(b.Succs(), b.ID)
		c.bound = max(c.bound, int64(b.LoopBound))
		for _, in := range b.Instrs {
			w := int64(arch.InstrWeight(in, ch))
			c.own.total += w
			if in.Tx {
				c.own.tx += w
			}
			static += w
		}
	}
	const minus = int64(-1) << 60
	for i := range cs {
		c := &cs[i]
		c.best.total = minus
		if c.loop {
			bound := c.bound
			if bound == 0 {
				bound = int64(arch.DefaultLoopBound)
			}
			c.own.total *= bound
			c.own.tx *= bound
		}
	}

	// Longest path over the condensation DAG from the entry component.
	order, _ := cond.Topo()
	entry := &cs[scc.Comp[f.Entry]]
	entry.best, entry.reached = entry.own, true
	var final nodeCost
	for _, n := range order {
		c := &cs[n]
		if !c.reached {
			continue
		}
		if c.best.total > final.total {
			final = c.best
		}
		for _, s := range cond.Succs(n) {
			cand := nodeCost{total: c.best.total + cs[s].own.total, tx: c.best.tx + cs[s].own.tx}
			if cand.total > cs[s].best.total {
				cs[s].best, cs[s].reached = cand, true
			}
		}
	}
	return PathCost{Total: final.total, Tx: final.tx, Static: static}
}
