package graph

// SCCResult describes the strongly connected components of a digraph.
type SCCResult struct {
	// Comp maps each node to its component index. Component indices are
	// assigned in reverse topological order by Tarjan's algorithm; use
	// Condense or Topo on the condensation if a forward order is needed.
	Comp []int
	// Members lists the nodes of each component.
	Members [][]int
}

// NumComps returns the number of strongly connected components.
func (r *SCCResult) NumComps() int { return len(r.Members) }

// SCC computes strongly connected components using Tarjan's algorithm
// (iterative, so deep graphs cannot overflow the goroutine stack).
func SCC(g *Digraph) *SCCResult {
	n := g.Len()
	const unvisited = -1
	ints := make([]int, 3*n)
	index, lowlink, comp := ints[:n:n], ints[n:2*n:2*n], ints[2*n:]
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	type frame struct {
		node int
		next int // index into succ list
	}
	var (
		stack   = make([]int, 0, n) // Tarjan stack
		flat    = make([]int, 0, n) // every component's members, back to back
		members [][]int
		work    []frame
		counter int
	)
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		work = append(work[:0], frame{node: root})
		index[root] = counter
		lowlink[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			u := f.node
			advanced := false
			for f.next < len(g.succs[u]) {
				v := g.succs[u][f.next]
				f.next++
				if index[v] == unvisited {
					index[v] = counter
					lowlink[v] = counter
					counter++
					stack = append(stack, v)
					onStack[v] = true
					work = append(work, frame{node: v})
					advanced = true
					break
				}
				if onStack[v] && index[v] < lowlink[u] {
					lowlink[u] = index[v]
				}
			}
			if advanced {
				continue
			}
			// u is finished.
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].node
				if lowlink[u] < lowlink[parent] {
					lowlink[parent] = lowlink[u]
				}
			}
			if lowlink[u] == index[u] {
				start := len(flat)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = len(members)
					flat = append(flat, w)
					if w == u {
						break
					}
				}
				members = append(members, flat[start:len(flat):len(flat)])
			}
		}
	}
	return &SCCResult{Comp: comp, Members: members}
}

// Condense builds the condensation (component DAG) of g under the given SCC
// result: one node per component, with deduplicated edges between distinct
// components.
func Condense(g *Digraph, r *SCCResult) *Digraph {
	c := Build(r.NumComps(), func(add func(u, v int)) {
		for u := 0; u < g.Len(); u++ {
			for _, v := range g.succs[u] {
				if cu, cv := r.Comp[u], r.Comp[v]; cu != cv {
					add(cu, cv)
				}
			}
		}
	})
	c.Dedup()
	return c
}
