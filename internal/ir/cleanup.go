package ir

// RemoveUnreachable deletes blocks not reachable from the entry, renumbers
// the remaining blocks, remaps branch targets and phi predecessor lists, and
// drops phi operands flowing in from deleted blocks.
func RemoveUnreachable(f *Func) {
	// Depth-first over terminator targets; no graph is built to ask this.
	reach := make([]bool, len(f.Blocks))
	reach[f.Entry] = true
	nReach := 1
	stack := []int{f.Entry}
	for len(stack) > 0 {
		b := f.Blocks[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs() {
			if !reach[s] {
				reach[s] = true
				nReach++
				stack = append(stack, s)
			}
		}
	}
	if nReach == len(f.Blocks) {
		return
	}
	remap := make([]int, len(f.Blocks))
	kept := make([]*Block, 0, nReach)
	for _, b := range f.Blocks {
		if reach[b.ID] {
			remap[b.ID] = len(kept)
			kept = append(kept, b)
		} else {
			remap[b.ID] = -1
		}
	}
	for _, b := range kept {
		b.ID = remap[b.ID]
		for _, in := range b.Instrs {
			for i, t := range in.Targets {
				in.Targets[i] = remap[t]
			}
			if in.Op == OpPhi {
				args := in.Args[:0]
				preds := in.PhiPreds[:0]
				for i, p := range in.PhiPreds {
					if remap[p] >= 0 {
						args = append(args, in.Args[i])
						preds = append(preds, remap[p])
					}
				}
				in.Args = args
				in.PhiPreds = preds
			}
		}
	}
	f.Blocks = kept
	f.Entry = remap[f.Entry]
}
