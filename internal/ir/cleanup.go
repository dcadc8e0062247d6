package ir

// RemoveUnreachable deletes blocks not reachable from the entry, renumbers
// the remaining blocks, remaps branch targets and phi predecessor lists, and
// drops phi operands flowing in from deleted blocks. buf is its working
// storage, reused when it holds 2·len(f.Blocks) ints whatever they are (nil
// is fine); it is returned, replaced if it was too short, for the next call.
func RemoveUnreachable(f *Func, buf []int) []int {
	n := len(f.Blocks)
	if cap(buf) < 2*n {
		buf = make([]int, 2*n)
	}
	// Depth-first over terminator targets; no graph is built to ask this.
	// remap[b] is -1 until b is reached.
	remap, stack := buf[:n], buf[n:n:2*n]
	for i := range remap {
		remap[i] = -1
	}
	remap[f.Entry] = 0
	nReach := 1
	stack = append(stack, f.Entry)
	for len(stack) > 0 {
		b := f.Blocks[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs() {
			if remap[s] < 0 {
				remap[s] = 0
				nReach++
				stack = append(stack, s)
			}
		}
	}
	if nReach == n {
		return buf
	}
	kept := make([]*Block, 0, nReach)
	for _, b := range f.Blocks {
		if remap[b.ID] >= 0 {
			remap[b.ID] = len(kept)
			kept = append(kept, b)
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
	return buf
}
