package graph

// DomTree holds an immediate-dominator tree for a rooted digraph.
type DomTree struct {
	// Idom maps each node to its immediate dominator. The root maps to
	// itself; nodes unreachable from the root map to -1.
	Idom []int
	// order is the reverse-postorder number of each node (root = 0);
	// -1 for unreachable nodes.
	order []int
}

// Dominators computes the dominator tree of g rooted at root using the
// Cooper–Harvey–Kennedy iterative algorithm ("A Simple, Fast Dominance
// Algorithm"). Post-dominators are obtained by calling Dominators on
// g.Reverse() rooted at the exit node.
func Dominators(g *Digraph, root int) *DomTree {
	n := g.Len()
	rpo := reversePostorder(g, root)
	order := make([]int, n)
	for i := range order {
		order[i] = -1
	}
	for i, u := range rpo {
		order[u] = i
	}
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[root] = root
	changed := true
	for changed {
		changed = false
		for _, u := range rpo {
			if u == root {
				continue
			}
			newIdom := -1
			for _, p := range g.preds[u] {
				if order[p] < 0 || idom[p] < 0 {
					continue // unreachable or not yet processed
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(idom, order, p, newIdom)
				}
			}
			if newIdom >= 0 && idom[u] != newIdom {
				idom[u] = newIdom
				changed = true
			}
		}
	}
	return &DomTree{Idom: idom, order: order}
}

func intersect(idom, order []int, a, b int) int {
	for a != b {
		for order[a] > order[b] {
			a = idom[a]
		}
		for order[b] > order[a] {
			b = idom[b]
		}
	}
	return a
}

// Dominates reports whether a dominates b (every path from the root to b
// passes through a). A node dominates itself.
func (t *DomTree) Dominates(a, b int) bool {
	if t.order[a] < 0 || t.order[b] < 0 {
		return false
	}
	for {
		if a == b {
			return true
		}
		if t.order[b] <= t.order[a] {
			return false
		}
		b = t.Idom[b]
	}
}

// Frontier computes the dominance frontier of every node: DF(a) contains b
// if a dominates a predecessor of b but does not strictly dominate b.
func (t *DomTree) Frontier(g *Digraph) [][]int {
	n := g.Len()
	df := make([][]int, n)
	mark := make([]int, n) // mark[a] == b+1: b is already in DF(a)
	for b := 0; b < n; b++ {
		if t.order[b] < 0 || len(g.preds[b]) < 2 {
			continue
		}
		for _, p := range g.preds[b] {
			if t.order[p] < 0 {
				continue
			}
			runner := p
			for runner != t.Idom[b] {
				if mark[runner] != b+1 {
					mark[runner] = b + 1
					df[runner] = append(df[runner], b)
				}
				runner = t.Idom[runner]
			}
		}
	}
	return df
}

// reversePostorder returns the nodes reachable from root in reverse
// postorder of a depth-first traversal.
func reversePostorder(g *Digraph, root int) []int {
	n := g.Len()
	seen := make([]bool, n)
	post := make([]int, 0, n)
	type frame struct {
		node int
		next int
	}
	stack := []frame{{node: root}}
	seen[root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(g.succs[f.node]) {
			v := g.succs[f.node][f.next]
			f.next++
			if !seen[v] {
				seen[v] = true
				stack = append(stack, frame{node: v})
			}
			continue
		}
		post = append(post, f.node)
		stack = stack[:len(stack)-1]
	}
	// Reverse.
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}
