package core

import "fmt"

// This file keeps the interference relations as they were first written —
// over lists of definition and use positions, one reachability test per
// pair of points — as the reference packCut's relations are held to
// (TestInterferenceOracle). The reference reads its own block reachability,
// computed from the analyzed function's CFG, not the positions table's.

// refReach is an object's reach at one cut as position lists.
type refReach struct {
	relayed bool
	from    int
	defs    []pos
	uses    []pos
}

// refPositions is block-level reachability: reach1[b][c] reports a nonempty
// path b -> c.
type refPositions struct {
	reach1 [][]bool
}

// reachOf computes object o's reach at cut j, prev being cut j-1, as packCut
// does, in block sets of its own.
func (st *partitionState) reachOf(o object, j int, ps *positions, prev *cutInfo) *reach {
	r := &reach{o: o, relayed: st.defStage(o) < j, from: -1, defs: st.defPositions(nil, o, ps), uses: make([]uint64, ps.words)}
	st.fillUses(r, j, ps)
	if r.relayed {
		r.from = prev.from(o)
	}
	if st.opts.Tx == TxNaiveInterference {
		r.live = make([]uint64, ps.words)
		liveBlocks(r, ps, make([]uint64, ps.words))
	}
	return r
}

// refReachOf lists object o's definition points and its use points beyond
// cut j, prev being cut j-1.
func (st *partitionState) refReachOf(o object, j int, prev *cutInfo) refReach {
	ps := st.a.ps
	r := refReach{relayed: st.defStage(o) < j, from: -1}
	if !o.isCtrl {
		if d := ps.defAt[o.reg]; d.block >= 0 {
			r.defs = append(r.defs, d)
		}
		for _, use := range ps.usesOf[o.reg] {
			if st.stageOf[use.unit] > j {
				r.uses = append(r.uses, use.at)
			}
		}
	} else {
		for _, t := range st.ctrlTargets(o.branch) {
			r.defs = append(r.defs, pos{block: t, idx: 0})
		}
		for _, d := range st.ctrlClosure(o.branch) {
			if st.stageOf[d] > j {
				r.uses = append(r.uses, ps.unitPos[d]...)
			}
		}
	}
	if r.relayed {
		r.from = prev.from(o)
	}
	return r
}

// reaches reports whether a control-flow path from p to q exists (p strictly
// before q within a block, or any nonempty block path; a block inside a
// cycle reaches itself).
func (ps *refPositions) reaches(p, q pos) bool {
	if p.block == q.block && p.idx <= q.idx {
		return true
	}
	return ps.reach1[p.block][q.block]
}

// refInterferes is the exact relation: see interferes.
func refInterferes(u, v refReach, ps *refPositions) bool {
	if u.relayed && v.relayed {
		return u.from < 0 || u.from != v.from
	}
	if u.relayed {
		return refClobbersRelayed(u, v, ps)
	}
	if v.relayed {
		return refClobbersRelayed(v, u, ps)
	}
	return refClobbers(u, v, ps) || refClobbers(v, u, ps)
}

// refClobbersRelayed reports whether v's definition can co-occur on a path
// with a beyond-the-cut use of u.
func refClobbersRelayed(u, v refReach, ps *refPositions) bool {
	for _, dv := range v.defs {
		for _, q := range u.uses {
			if ps.reaches(dv, q) || ps.reaches(q, dv) {
				return true
			}
		}
	}
	return false
}

// refClobbers reports whether v's definition can follow u's on a path that
// also uses u beyond the cut.
func refClobbers(u, v refReach, ps *refPositions) bool {
	for _, du := range u.defs {
		for _, dv := range v.defs {
			if !ps.reaches(du, dv) {
				continue
			}
			for _, q := range u.uses {
				// Paper figure 15: def(u) ... def(v) ... use(u).
				if ps.reaches(dv, q) {
					return true
				}
				// Paper figure 16: def(u) ... use(u) ... def(v).
				if ps.reaches(du, q) && ps.reaches(q, dv) {
					return true
				}
			}
		}
	}
	return false
}

// refLiveBlocks is where the figure-13 relation takes o to be live: every
// block of a path from one of its definitions to one of its beyond-the-cut
// uses.
func refLiveBlocks(o refReach, ps *refPositions) map[int]bool {
	blocks := make(map[int]bool)
	for _, d := range o.defs {
		for _, q := range o.uses {
			if !ps.reaches(d, q) && d.block != q.block {
				continue
			}
			blocks[d.block] = true
			blocks[q.block] = true
			for b := range ps.reach1 {
				if ps.reach1[d.block][b] && ps.reach1[b][q.block] {
					blocks[b] = true
				}
			}
		}
	}
	return blocks
}

// refNaiveInterferes is the figure-13 relation: two objects live in a
// common block (refLiveBlocks).
func refNaiveInterferes(lu, lv map[int]bool) bool {
	for b := range lv {
		if lu[b] {
			return true
		}
	}
	return false
}

// refSharesUnsafely reports whether two coded control objects may not share
// a slot: see sharesUnsafely.
func refSharesUnsafely(u, v refReach, ps *refPositions) bool {
	if u.relayed && v.relayed {
		return u.from != v.from
	}
	for _, du := range u.defs[:max(len(u.defs)-1, 0)] {
		for _, dv := range v.defs[:max(len(v.defs)-1, 0)] {
			if ps.reaches(du, dv) || ps.reaches(dv, du) {
				return true
			}
		}
	}
	return false
}

// checkInterference cuts a at opts as Partition does and, at every cut,
// holds packCut's relations to the reference on every ordered pair of the
// live set's objects, and the cut's interference count to the reference
// relation under the transmission mode's rule. It returns the number of
// pairs compared.
func checkInterference(a *Analysis, options Options) (int, error) {
	opts, err := a.resolveOptions(options)
	if err != nil {
		return 0, err
	}
	ws := new(workspace)
	stageOf, _, err := a.assignStages(opts, ws)
	if err != nil {
		return 0, err
	}
	st := a.newState(opts, stageOf, ws)
	ref := &refPositions{reach1: a.an.F.CFG().Reach()}
	pairs := 0
	var prev *cutInfo
	for j := 1; j < opts.Stages; j++ {
		ci := st.buildCut(j, a.ps, prev)
		n := len(ci.objects)
		got, want, live := make([]*reach, n), make([]refReach, n), make([]map[int]bool, n)
		for i, o := range ci.objects {
			got[i], want[i] = st.reachOf(o, j, a.ps, prev), st.refReachOf(o, j, prev)
			if opts.Tx == TxNaiveInterference {
				live[i] = refLiveBlocks(want[i], ref)
			}
		}
		count := 0
		for i := range n {
			for k := range n {
				if i == k {
					continue
				}
				u, v, ru, rv := got[i], got[k], want[i], want[k]
				rels := []struct {
					name      string
					got, want bool
				}{
					{"interferes", interferes(u, v, a.ps), refInterferes(ru, rv, ref)},
					{"clobbers", clobbers(u, v, a.ps), refClobbers(ru, rv, ref)},
					{"clobbersRelayed", clobbersRelayed(u, v, a.ps), refClobbersRelayed(ru, rv, ref)},
					{"sharesUnsafely", sharesUnsafely(u, v, a.ps), refSharesUnsafely(ru, rv, ref)},
				}
				// The naive relation is what the figure-13 mode packs with.
				if opts.Tx == TxNaiveInterference && i < k {
					rels = append(rels, struct {
						name      string
						got, want bool
					}{"naiveInterferes", naiveInterferes(u, v), refNaiveInterferes(live[i], live[k])})
				}
				for _, rel := range rels {
					if rel.got != rel.want {
						return pairs, fmt.Errorf("D=%d %v cut %d: %s(%+v, %+v) = %v, reference %v", opts.Stages, opts.Tx, j, rel.name, ci.objects[i], ci.objects[k], rel.got, rel.want)
					}
				}
				pairs++
				if i > k {
					continue
				}
				conflict := refInterferes(ru, rv, ref)
				switch {
				case opts.Tx == TxNaiveUnified:
					conflict = true
				case ru.relayed || rv.relayed:
				case opts.Tx == TxNaiveInterference:
					conflict = conflict || refNaiveInterferes(live[i], live[k])
				}
				if conflict {
					count++
				}
			}
		}
		if count != ci.interferences {
			return pairs, fmt.Errorf("D=%d %v cut %d: %d interfering pairs, reference %d", opts.Stages, opts.Tx, j, ci.interferences, count)
		}
		prev = ci
	}
	return pairs, nil
}
