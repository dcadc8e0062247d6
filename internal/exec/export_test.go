package exec

import "repro/internal/interp"

// DynOps runs one iteration exactly as RunIterationInto does and also
// returns how many closures it dispatched: body ops plus one terminator
// per block entered.
func (m *Runner) DynOps(ctx *interp.IterCtx, recv []int64) (ops int, sent []int64, err error) {
	bi := m.begin(ctx, recv, nil)
loop:
	for bi >= 0 {
		b := &m.blocks[bi]
		for _, fn := range b.body {
			ops++
			if fn(m) == pcErr {
				bi = pcErr
				break loop
			}
		}
		ops++
		bi = b.term(m)
	}
	sent, err = m.end(bi)
	return ops, sent, err
}
