package core

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/ir"
)

// ExplorePEs is the number of degrees Explore searches, for the external
// test package.
const ExplorePEs = explorePEs

// AnalysisInfEdges exposes the flow network's infinite-edge count to the
// external test package (which can import netbench; this package cannot, as
// netbench depends on core).
func AnalysisInfEdges(a *Analysis) int { return a.net.whole().InfEdges() }

// AnalysisNodes is the node count of the analysis's flow network.
func AnalysisNodes(a *Analysis) int { return a.net.nNodes }

// FrontEndDigests folds what Analyze built into two FNV-64 hashes, for the
// external test package's front-end golden. The first covers the analyzed
// SSA program and the dependence analysis: the summarized CFG, the units
// and where each instruction's unit is, DataDef/DataUses, Ctrl, Order,
// Carried, the SCC components and their topological order and weights, the
// control closures, the interference position tables and the realization
// tables. The second covers the flow network built from a.net: node count,
// weights, every edge in order with its capacity, and each node's
// incident-edge list.
// Tables keyed by unit are written in ascending key order, empty lists left
// out, so a map and a slice indexed by unit hash alike.
func FrontEndDigests(a *Analysis) (analysis, network uint64) {
	an := a.an
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%v|%d|%v|", a.prog, an.BlockComp, an.ExitNode, an.PostDom.Idom)
	for n := 0; n < an.SumCFG.Len(); n++ {
		fmt.Fprintf(h, "%d>%v;", n, an.SumCFG.Succs(n))
	}
	for _, u := range an.Units {
		fmt.Fprintf(h, "u%d %v %d %d %v %d;", u.ID, u.IsLoop, u.Weight, u.SumNode, u.Blocks, len(u.Instrs))
	}
	fmt.Fprintf(h, "|%v|%v|%v|", an.UnitAt, an.DataDef, an.DataUses)
	byUnit := func(tag string, lists func(u int) []int) {
		keys := make([]int, 0, len(an.Units))
		for u := range an.Units {
			if len(lists(u)) > 0 {
				keys = append(keys, u)
			}
		}
		sort.Ints(keys)
		for _, u := range keys {
			fmt.Fprintf(h, "%s%d:%v;", tag, u, lists(u))
		}
	}
	byUnit("ctrl", func(u int) []int { return an.Ctrl[u] })
	fmt.Fprintf(h, "|%v|%v|%v|%v|%v|%v|%d|", an.Order, an.Carried, a.scc.Comp, a.scc.Members, a.topo, a.compWeight, a.totalWeight)
	byUnit("closure", func(u int) []int { return a.closures[u] })
	reach1 := make([][]bool, len(an.F.Blocks)) // block reachability, as [b][c]
	for b := range reach1 {
		reach1[b] = make([]bool, len(reach1))
		for c := range reach1[b] {
			reach1[b][c] = has(a.ps.from(b), c)
		}
	}
	fmt.Fprintf(h, "|%v|%v|%v|%v|", reach1, a.ps.defAt, a.ps.usesOf, a.ps.unitPos)
	fmt.Fprintf(h, "%v|%d|%v|%+v", a.nodeEntry, a.exitBlock, a.targets, a.seq)
	analysis = h.Sum64()

	h.Reset()
	nw := a.net.whole()
	fmt.Fprintf(h, "%d|%d|%v|%d|", a.net.nNodes, a.net.nc, a.net.weight, nw.InfEdges())
	nw.ForEachEdge(func(id, tail, head int, capacity int64) { fmt.Fprintf(h, "e%d %d>%d %d;", id, tail, head, capacity) })
	for u := 0; u < nw.Len(); u++ {
		fmt.Fprintf(h, "n%d:", u)
		nw.ForEachIncident(u, func(e int) { fmt.Fprintf(h, "%d,", e) })
	}
	return analysis, h.Sum64()
}

// StageOf exposes a result's stage assignment (1-based, by unit) to the
// external test package.
func StageOf(r *Result) []int { return r.stageOf }

// CoalesceCopies runs the stage copy coalescer on f, for the external test
// package's hand-built stages.
func CoalesceCopies(f *ir.Func) { coalesceCopies(f, new(workspace)) }

// CheckInterference holds packCut's interference relations to their
// position-list reference at every cut of a at opts, returning the number
// of object pairs compared.
func CheckInterference(a *Analysis, opts Options) (int, error) { return checkInterference(a, opts) }

// CheckWindowedCuts holds every cut search of a at opts to the
// whole-network search on the same pins, returning the number of cuts
// compared and the largest window met.
func CheckWindowedCuts(a *Analysis, opts Options) (cuts, widest int, err error) {
	return checkWindowedCuts(a, opts)
}

// StageShells returns, for every stage of a's cut at opts with the cuts
// fuse names un-made (as Coarsen makes them), the function realizeStage
// hands to ssa.Destruct and how many of its registers its shell named.
func StageShells(a *Analysis, opts Options, fuse uint64) ([]*ir.Func, []int, error) {
	res, err := a.Partition(opts)
	if err != nil {
		return nil, nil, err
	}
	ws := new(workspace)
	_, st := res.coarsened(fuse, ws)
	st.buildCuts()
	var fs []*ir.Func
	var shell []int
	for k := 1; k <= st.opts.Stages; k++ {
		f, err := st.stageFunc(k)
		if err != nil {
			return nil, nil, err
		}
		fs, shell = append(fs, f), append(shell, len(ws.regOf))
	}
	return fs, shell, nil
}
