package core

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/dep"
	"repro/internal/graph"
	"repro/internal/ir"
)

// object identifies one member of a cut's live set: either an SSA value or
// the control object of a branch/loop unit.
type object struct {
	isCtrl bool
	reg    int // SSA register (values)
	branch int // branch unit ID (control objects)
}

// cutInfo describes one cut: its live set, interference, and slot packing.
type cutInfo struct {
	index    int      // 1-based: cut index j separates stages <= j from > j
	objects  []object // values by register, then control objects by branch unit
	slots    []int    // slots[i] is objects[i]'s slot
	numSlots int
	// interferences counts interfering pairs (reported for the ablation).
	interferences int
}

// slotOf returns the slot object o occupies at the cut, ok false when o
// does not cross it.
func (ci *cutInfo) slotOf(o object) (slot int, ok bool) {
	i, ok := slices.BinarySearchFunc(ci.objects, o, compareObjects)
	if !ok {
		return 0, false
	}
	return ci.slots[i], true
}

// from returns the slot a relayed object o arrived in at cut ci, -1 when
// there is no such cut or o did not cross it.
func (ci *cutInfo) from(o object) int {
	if ci == nil {
		return -1
	}
	if s, ok := ci.slotOf(o); ok {
		return s
	}
	return -1
}

// compareObjects orders objects as a cut lists them: values by register,
// then control objects by branch unit.
func compareObjects(a, b object) int {
	if a.isCtrl != b.isCtrl {
		if a.isCtrl {
			return 1
		}
		return -1
	}
	return cmp.Or(cmp.Compare(a.reg, b.reg), cmp.Compare(a.branch, b.branch))
}

// pos is an instruction position: block ID and index within the block.
// Index len(instrs) denotes the point after the last instruction.
type pos struct {
	block int
	idx   int
}

// positions precomputes what the interference test needs of the analyzed
// function alone: block-level reachability (via at least one edge), and
// where every SSA value is defined, where each unit reads it, and where each
// unit's instructions sit. A cut only selects among these.
type positions struct {
	f *ir.Func
	// Block sets are words 64-bit words wide. fwd's row b is the set of
	// blocks a nonempty path from b reaches, back's row b the set of blocks
	// with a nonempty path to b.
	words     int
	fwd, back []uint64
	// defAt[r] is where register r is defined (block -1: nowhere).
	defAt []pos
	// usesOf[r] lists where r is consumed, grouped by using unit in DataUses
	// order. For a phi operand the consuming point is the end of the
	// incoming predecessor block.
	usesOf [][]useAt
	// unitPos[u] lists the positions of unit u's instructions, and
	// unitBlocks' row u is the set of blocks they sit in.
	unitPos    [][]pos
	unitBlocks []uint64
}

// useAt is one consuming point of a value, in the unit that reads it.
type useAt struct {
	unit int
	at   pos
}

func newPositions(an *dep.Analysis, cfg *graph.Digraph) *positions {
	f := an.F
	p := &positions{f: f, defAt: make([]pos, f.NumRegs)}
	p.words, p.fwd, p.back = blockReach(cfg)
	for r := range p.defAt {
		p.defAt[r].block = -1
	}
	// Unit instructions sit in block order, so one walk of the blocks lays
	// out every unit's positions; the lists are windows of one slab.
	p.unitPos = make([][]pos, len(an.Units))
	p.unitBlocks = make([]uint64, len(an.Units)*p.words)
	nInstrs := 0
	for _, u := range an.Units {
		nInstrs += len(u.Instrs)
	}
	slab := make([]pos, nInstrs)
	for _, u := range an.Units {
		p.unitPos[u.ID], slab = slab[:0:len(u.Instrs)], slab[len(u.Instrs):]
	}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			for _, d := range in.Defines() {
				p.defAt[d] = pos{block: b.ID, idx: i}
			}
			if u := an.UnitAt[b.ID][i]; u >= 0 {
				p.unitPos[u] = append(p.unitPos[u], pos{block: b.ID, idx: i})
				p.unitBlocks[u*p.words+b.ID/64] |= 1 << (b.ID % 64)
			}
		}
	}
	p.usesOf = make([][]useAt, f.NumRegs)
	var uses []useAt
	end := make([]int, f.NumRegs)
	for r, useUnits := range an.DataUses {
		for _, u := range useUnits {
			for k, in := range an.Units[u].Instrs {
				for ai, a := range in.Args {
					if a != r {
						continue
					}
					if in.Op != ir.OpPhi {
						uses = append(uses, useAt{u, p.unitPos[u][k]})
						break // one consuming point per instruction
					}
					pred := in.PhiPreds[ai]
					uses = append(uses, useAt{u, pos{block: pred, idx: len(f.Blocks[pred].Instrs)}})
				}
			}
		}
		end[r] = len(uses)
	}
	start := 0
	for r, e := range end {
		p.usesOf[r], start = uses[start:e:e], e
	}
	return p
}

// blockReach returns cfg's reachability as rows of words-wide block sets:
// fwd's row b holds the blocks a nonempty path from b reaches (b itself
// only around a cycle), back's row b the blocks with a nonempty path to b.
func blockReach(cfg *graph.Digraph) (words int, fwd, back []uint64) {
	n := cfg.Len()
	words = (n + 63) / 64
	sets := make([]uint64, 2*n*words)
	fwd, back = sets[:n*words:n*words], sets[n*words:]
	var stack []int
	for b := 0; b < n; b++ {
		row := fwd[b*words : (b+1)*words]
		for stack = append(stack[:0], b); len(stack) > 0; {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range cfg.Succs(w) {
				if !has(row, v) {
					row[v/64] |= 1 << (v % 64)
					back[v*words+b/64] |= 1 << (b % 64)
					stack = append(stack, v)
				}
			}
		}
	}
	return words, fwd, back
}

// has reports whether block set s holds b.
func has(s []uint64, b int) bool { return s[b/64]&(1<<(b%64)) != 0 }

// meets reports whether block sets a and b intersect.
func meets(a, b []uint64) bool {
	for i, w := range a {
		if w&b[i] != 0 {
			return true
		}
	}
	return false
}

// meets3 reports whether block sets a, b and c have a block in common.
func meets3(a, b, c []uint64) bool {
	for i, w := range a {
		if w&b[i]&c[i] != 0 {
			return true
		}
	}
	return false
}

// from and to return the rows of block b: the blocks b reaches, and the
// blocks that reach b.
func (ps *positions) from(b int) []uint64 { return ps.fwd[b*ps.words : (b+1)*ps.words] }
func (ps *positions) to(b int) []uint64   { return ps.back[b*ps.words : (b+1)*ps.words] }

// reaches reports whether a control-flow path from p to q exists (p strictly
// before q within a block, or any nonempty block path; a block inside a
// cycle reaches itself).
func (ps *positions) reaches(p, q pos) bool {
	if p.block == q.block && p.idx <= q.idx {
		return true
	}
	return has(ps.from(p.block), q.block)
}

// buildCut computes the live set of cut j and packs it into slots. prev is
// cut j-1 (nil for the first cut): relayed objects' slot assignments there
// constrain packing here.
func (st *partitionState) buildCut(j int, ps *positions, prev *cutInfo) *cutInfo {
	an := st.an
	ci := &cutInfo{index: j}

	// Values crossing the cut, by register, then control objects by branch
	// unit. A constant never crosses: the stages that read it make it
	// themselves. Transitive dependents count for a control object, since a
	// downstream stage navigates nested regions through the outer branch's
	// decision.
	for r, def := range an.DataDef {
		if def >= 0 && !st.a.isConst[r] && st.stageOf[def] <= j && slices.ContainsFunc(an.DataUses[r], func(use int) bool { return st.stageOf[use] > j }) {
			ci.objects = append(ci.objects, object{reg: r})
		}
	}
	for b := range an.Ctrl {
		if st.stageOf[b] <= j && slices.ContainsFunc(st.ctrlClosure(b), func(d int) bool { return st.stageOf[d] > j }) {
			ci.objects = append(ci.objects, object{isCtrl: true, branch: b})
		}
	}

	st.packCut(ci, ps, prev)
	return ci
}

// defStage returns the stage owning an object's definition.
func (st *partitionState) defStage(o object) int {
	if o.isCtrl {
		return st.stageOf[o.branch]
	}
	return st.stageOf[st.an.DataDef[o.reg]]
}

// defPositions appends the realization-relevant definition points of an
// object to buf: the defining instruction for values, or the start of each
// distinct successor block for control objects (where the realization
// materializes the control-object constants).
func (st *partitionState) defPositions(buf []pos, o object, ps *positions) []pos {
	if !o.isCtrl {
		if d := ps.defAt[o.reg]; d.block >= 0 {
			buf = append(buf, d)
		}
		return buf
	}
	for _, t := range st.ctrlTargets(o.branch) {
		buf = append(buf, pos{block: t, idx: 0})
	}
	return buf
}

// ctrlTargets returns the distinct external successor blocks of a branch
// unit in deterministic order. Control-object values index this list.
func (st *partitionState) ctrlTargets(branchUnit int) []int {
	return st.a.targets[branchUnit]
}

// unitTargets computes that list for one branch or loop unit; Analyze does
// so once per unit.
func unitTargets(f *ir.Func, u *dep.Unit) []int {
	if !u.IsLoop {
		return distinctTargets(u.Instrs[len(u.Instrs)-1])
	}
	inUnit := make(map[int]bool, len(u.Blocks))
	for _, b := range u.Blocks {
		inUnit[b] = true
	}
	var out []int
	seen := make(map[int]bool)
	blocks := append([]int(nil), u.Blocks...)
	sort.Ints(blocks)
	for _, bid := range blocks {
		t := f.Blocks[bid].Term()
		if t == nil {
			continue
		}
		for _, tgt := range t.Targets {
			if !inUnit[tgt] && !seen[tgt] {
				seen[tgt] = true
				out = append(out, tgt)
			}
		}
	}
	return out
}

// reach is what the interference relations need of one live-set object at
// one cut: whether the sending stage relays it (defined before stage j), and
// for a relayed object the slot it arrived in at the previous cut (-1 when
// there is none); its definition points; the blocks holding its
// beyond-the-cut uses; and whether a use in a definition's own block follows
// the definition. That is the one index the relations read: everywhere else
// a block set answers, one word AND per 64 blocks. live is the figure-13
// relation's live region, kept only when the naive-interference mode packs.
// packCut computes a reach once per object; the relations are evaluated per
// pair.
type reach struct {
	o       object
	relayed bool
	from    int
	defs    []pos
	uses    []uint64
	after   bool
	live    []uint64
}

// fillUses marks, in r.uses, the blocks where stages beyond cut j consume
// r's object, and sets r.after. A control object is defined at the start of
// its targets, so any use in a target's block follows that definition.
func (st *partitionState) fillUses(r *reach, j int, ps *positions) {
	if r.o.isCtrl {
		r.after = true
		for _, d := range st.ctrlClosure(r.o.branch) {
			if st.stageOf[d] > j {
				for i, w := range ps.unitBlocks[d*ps.words : (d+1)*ps.words] {
					r.uses[i] |= w
				}
			}
		}
		return
	}
	def := ps.defAt[r.o.reg]
	for _, use := range ps.usesOf[r.o.reg] {
		if q := use.at; st.stageOf[use.unit] > j {
			r.uses[q.block/64] |= 1 << (q.block % 64)
			r.after = r.after || (q.block == def.block && q.idx >= def.idx)
		}
	}
}

// usedAfter reports whether u has a beyond-the-cut use at or after its
// definition d in d's own block.
func (u *reach) usedAfter(d pos) bool { return u.after && has(u.uses, d.block) }

// interferes implements the paper's interference relation over the
// concatenated CFGs with impossible paths excluded (figures 15/16): u and v
// interfere iff some execution path defines u, later defines v, and carries
// a beyond-the-cut use of u (or symmetrically). Sharing a slot is then
// unsafe because v's (later) slot write would clobber the value u's
// downstream consumer reads.
//
// Objects RELAYED by the sending stage of cut j (defined in stages < j) are
// rewritten at the stage's entry rather than at their original definition
// point, so their effective write position differs:
//
//   - two relayed objects share a slot iff they arrived in the same slot of
//     the previous cut (the relay copies are unconditional; distinct
//     sources would clobber each other on every path);
//   - a locally defined object clobbers a relayed one whenever its
//     definition co-occurs on a path with any beyond-the-cut use of the
//     relayed object (the relay write always precedes it);
//   - a relayed object never clobbers a locally defined one (entry writes
//     precede all local definitions).
func interferes(u, v *reach, ps *positions) bool {
	if u.relayed && v.relayed {
		return u.from < 0 || u.from != v.from // from < 0: defensive, should not happen
	}
	if u.relayed {
		return clobbersRelayed(u, v, ps)
	}
	if v.relayed {
		return clobbersRelayed(v, u, ps)
	}
	return clobbers(u, v, ps) || clobbers(v, u, ps)
}

// clobbersRelayed reports whether local object v's definition can co-occur
// on a path with a beyond-the-cut use of relayed object u: a use in the
// definition's block (one of the two comes first), or in a block it reaches
// or is reached from.
func clobbersRelayed(u, v *reach, ps *positions) bool {
	for _, dv := range v.defs {
		if has(u.uses, dv.block) || meets(ps.from(dv.block), u.uses) || meets(ps.to(dv.block), u.uses) {
			return true
		}
	}
	return false
}

// clobbers reports whether v's definition dv can follow u's du on a path
// that also uses u beyond the cut, at a point q: after dv (paper figure 15)
// or between the two (figure 16). Over blocks, with dv reachable from du,
// that is a use
//
//   - in a block dv's reaches;
//   - in dv's block, when it differs from du's: du reaches the whole block,
//     and the use sits before or after dv;
//   - in du's block, at or after du: du reaches it, and it reaches dv or
//     is reached from it;
//   - in a block du's reaches that reaches dv's.
func clobbers(u, v *reach, ps *positions) bool {
	for _, du := range u.defs {
		for _, dv := range v.defs {
			if !ps.reaches(du, dv) {
				continue
			}
			if u.usedAfter(du) || (du.block != dv.block && has(u.uses, dv.block)) ||
				meets(ps.from(dv.block), u.uses) || meets3(ps.from(du.block), ps.to(dv.block), u.uses) {
				return true
			}
		}
	}
	return false
}

// liveBlocks fills o.live, a zeroed block set, with the figure-13 relation's
// live region: every block of a path from one of o's definitions to one of
// its beyond-the-cut uses — the definition's block when it holds a use
// itself, or reaches one. mid is scratch of one block set.
func liveBlocks(o *reach, ps *positions, mid []uint64) {
	for _, d := range o.defs {
		// The use blocks d reaches, its own included.
		found := false
		clear(mid)
		from := ps.from(d.block)
		for i, w := range o.uses {
			reached := w & from[i]
			if i == d.block/64 {
				reached |= w & (1 << (d.block % 64))
			}
			for ; reached != 0; reached &= reached - 1 {
				qb := i*64 + bits.TrailingZeros64(reached)
				found = true
				o.live[qb/64] |= 1 << (qb % 64)
				for k, x := range ps.to(qb) {
					mid[k] |= x
				}
			}
		}
		if found {
			o.live[d.block/64] |= 1 << (d.block % 64)
			for i, w := range from {
				o.live[i] |= w & mid[i]
			}
		}
	}
}

// naiveInterferes is the figure-13 relation (no impossible-path exclusion):
// both objects are live in a common block (liveBlocks). This admits the
// paper's t2/t3 false interference.
func naiveInterferes(u, v *reach) bool { return meets(u.live, v.live) }

// packCut colors the interference graph, assigning each object a slot.
func (st *partitionState) packCut(ci *cutInfo, ps *positions, prev *cutInfo) {
	n, w := len(ci.objects), ps.words
	naive := st.opts.Tx == TxNaiveInterference
	ints, marks := scratch(&st.ws.ints, 4*n), scratch(&st.ws.bools, n*n+n+1)
	degree, order, color, kind := ints[:n], ints[n:2*n], ints[2*n:3*n], ints[3*n:]
	adj, used := marks[:n*n], marks[n*n:] // adj[i*n+k]: objects i and k interfere; a neighbour's color is below n
	rs := scratch(&st.ws.reach, n)
	// Each object's block sets — beyond-the-cut uses, in the naive mode the
	// live region too — are windows of one workspace slab, the last block
	// set of which is liveBlocks' scratch; its definition points share the
	// workspace's buffer. Both are dead when this cut is packed.
	sets := n
	if naive {
		sets = 2*n + 1
	}
	words := scratch(&st.ws.sets, sets*w)
	set := func(k int) []uint64 { return words[k*w : (k+1)*w : (k+1)*w] }
	buf := st.ws.pos[:0]
	for i, o := range ci.objects {
		d0 := len(buf)
		buf = st.defPositions(buf, o, ps)
		rs[i] = reach{o: o, relayed: st.defStage(o) < ci.index, from: -1, defs: buf[d0:len(buf):len(buf)], uses: set(i)}
		st.fillUses(&rs[i], ci.index, ps)
		if rs[i].relayed {
			rs[i].from = prev.from(o)
		}
		if naive {
			rs[i].live = set(n + i)
			liveBlocks(&rs[i], ps, set(2*n))
		}
	}
	st.ws.pos = buf
	for i := 0; i < n; i++ {
		for k := i + 1; k < n; k++ {
			u, v := &rs[i], &rs[k]
			var conflict bool
			switch {
			case st.opts.Tx == TxNaiveUnified:
				conflict = true
			case u.relayed || v.relayed:
				// Relay-involved pairs always use the exact relation: the
				// naive modes are ablations of packing quality, never of
				// correctness.
				conflict = interferes(u, v, ps)
			case naive:
				// The naive relation (concatenated CFGs without excluding
				// impossible paths) is a SUPERSET of the exact one: it adds
				// false pairs like the paper's t2/t3 but must never drop a
				// real conflict.
				conflict = interferes(u, v, ps) || naiveInterferes(u, v)
			default:
				conflict = interferes(u, v, ps)
			}
			if conflict {
				adj[i*n+k], adj[k*n+i] = true, true
				degree[i]++
				degree[k]++
				ci.interferences++
			}
		}
	}

	// Greedy coloring, highest degree first. When packed, a colour holds
	// values or control objects, never both (kind[c]: 0 none yet, 1 values,
	// 2 control objects), so that every control object can be coded and
	// share a slot with others (shareCodes).
	for i := range order {
		order[i], color[i] = i, -1
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(degree[b], degree[a]) })
	apart := st.opts.Tx == TxPacked
	for _, i := range order {
		clear(used)
		for k := 0; k < n; k++ {
			if adj[i*n+k] && color[k] >= 0 {
				used[color[k]] = true
			}
		}
		want := 1
		if ci.objects[i].isCtrl {
			want = 2
		}
		c := 0
		for used[c] || apart && kind[c] != 0 && kind[c] != want {
			c++
		}
		color[i], kind[c] = c, want
		if c+1 > ci.numSlots {
			ci.numSlots = c + 1
		}
	}
	ci.slots = slices.Clone(color)
	if st.opts.Tx == TxPacked {
		st.shareCodes(ci, rs, ps)
	}
}

// shareCodes lets control objects whose non-default decisions never both
// occur on one path share a slot. Packed, every control object is coded:
// each of its non-default targets writes its own nonzero code
// (Analysis.codes), its default target — the switch's last — writes
// nothing, and the slot enters the stage as zero (a register no path wrote
// reads 0) or through the relay copy of its slot at the previous cut, which
// held codes only too: packCut gives control objects colour classes without
// values. Those classes are merged first-fit in colour order, so the cut
// never has more slots than the colouring gave.
func (st *partitionState) shareCodes(ci *cutInfo, rs []reach, ps *positions) {
	n, nc := len(ci.objects), ci.numSlots
	ints, marks := scratch(&st.ws.ints, 2*nc), scratch(&st.ws.bools, nc*nc+nc)
	rep, slot := ints[:nc], ints[nc:]
	conflict, pure := marks[:nc*nc], marks[nc*nc:] // conflict[c*nc+r]: classes c and r may not share; pure[c]: c holds no value
	for c := range pure {
		rep[c], pure[c] = c, true
	}
	for i, o := range ci.objects {
		if !o.isCtrl {
			pure[ci.slots[i]] = false
		}
	}
	for i := range ci.objects {
		for k := i + 1; k < n; k++ {
			c, r := ci.slots[i], ci.slots[k]
			if c != r && pure[c] && pure[r] && sharesUnsafely(&rs[i], &rs[k], ps) {
				conflict[c*nc+r], conflict[r*nc+c] = true, true
			}
		}
	}
	for c := 0; c < nc; c++ {
		for r := 0; r < c && pure[c]; r++ {
			if rep[r] != r || !pure[r] || conflict[c*nc+r] {
				continue
			}
			rep[c] = r
			for x := 0; x < nc; x++ { // group r now conflicts with all of c's
				conflict[r*nc+x] = conflict[r*nc+x] || conflict[c*nc+x]
				conflict[x*nc+r] = conflict[r*nc+x]
			}
			break
		}
	}
	k := 0
	for c := range slot {
		if rep[c] == c {
			slot[c], k = k, k+1
		} else {
			slot[c] = slot[rep[c]]
		}
	}
	for i, c := range ci.slots {
		ci.slots[i] = slot[c]
	}
	ci.numSlots = k
}

// sharesUnsafely reports whether two coded control objects may not share a
// slot: two relayed ones arrived in different slots (one relay copy fills a
// slot), or a non-default target of one and one of the other lie on one path
// — in one block, or one reaching the other.
func sharesUnsafely(u, v *reach, ps *positions) bool {
	if u.relayed && v.relayed {
		return u.from != v.from
	}
	for _, du := range u.defs[:max(len(u.defs)-1, 0)] {
		for _, dv := range v.defs[:max(len(v.defs)-1, 0)] {
			if du.block == dv.block || has(ps.from(du.block), dv.block) || has(ps.from(dv.block), du.block) {
				return true
			}
		}
	}
	return false
}
