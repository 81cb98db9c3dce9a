package dataflow

// DomTree is the dominator tree of a rooted flow graph, built with the
// Cooper–Harvey–Kennedy iterative algorithm over reverse postorder.
// Dominance queries answer in O(1) via an Euler interval numbering.
type DomTree struct {
	root  int
	idom  []int // immediate dominator per node; -1 for root and unreachable nodes
	rpo   []int // reachable nodes in reverse postorder
	pos   []int // RPO position per node; -1 if unreachable from root
	kids  [][]int
	pre   []int // Euler pre/post interval of each node within the tree
	post  []int
	reach []bool
}

// Dominators computes the dominator tree of g rooted at root.
func Dominators(g Graph, root int) *DomTree {
	n := g.Len()
	d := &DomTree{
		root: root,
		idom: make([]int, n),
		pos:  make([]int, n),
		kids: make([][]int, n),
		pre:  make([]int, n),
		post: make([]int, n),
	}
	for i := range d.idom {
		d.idom[i] = -1
		d.pos[i] = -1
	}
	d.rpo = ReversePostorder(g, root)
	for i, m := range d.rpo {
		d.pos[m] = i
	}
	d.reach = make([]bool, n)
	for _, m := range d.rpo {
		d.reach[m] = true
	}
	if len(d.rpo) == 0 {
		return d
	}

	d.idom[root] = root
	for changed := true; changed; {
		changed = false
		for _, b := range d.rpo {
			if b == root {
				continue
			}
			newIdom := -1
			for _, p := range g.Preds(b) {
				if !d.reach[p] || d.idom[p] == -1 {
					continue // not yet processed or unreachable
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = d.intersect(p, newIdom)
				}
			}
			if newIdom != -1 && d.idom[b] != newIdom {
				d.idom[b] = newIdom
				changed = true
			}
		}
	}
	d.idom[root] = -1

	for _, b := range d.rpo {
		if p := d.idom[b]; p != -1 {
			d.kids[p] = append(d.kids[p], b)
		}
	}
	// Euler numbering for O(1) Dominates. Iterative DFS to keep deep
	// dominator chains (long straight-line functions) off the Go stack.
	clock := 0
	type frame struct{ node, next int }
	stack := []frame{{root, 0}}
	d.pre[root] = clock
	clock++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(d.kids[f.node]) {
			c := d.kids[f.node][f.next]
			f.next++
			d.pre[c] = clock
			clock++
			stack = append(stack, frame{c, 0})
			continue
		}
		d.post[f.node] = clock
		clock++
		stack = stack[:len(stack)-1]
	}
	return d
}

func (d *DomTree) intersect(a, b int) int {
	for a != b {
		for d.pos[a] > d.pos[b] {
			a = d.idom[a]
		}
		for d.pos[b] > d.pos[a] {
			b = d.idom[b]
		}
	}
	return a
}

// Root returns the tree's root node.
func (d *DomTree) Root() int { return d.root }

// Idom returns n's immediate dominator, or -1 for the root and for nodes
// unreachable from it.
func (d *DomTree) Idom(n int) int { return d.idom[n] }

// Reachable reports whether n is reachable from the root.
func (d *DomTree) Reachable(n int) bool { return d.reach[n] }

// Dominates reports whether a dominates b (reflexively). Both nodes must
// be reachable from the root; unreachable nodes dominate nothing and are
// dominated by nothing.
func (d *DomTree) Dominates(a, b int) bool {
	if !d.reach[a] || !d.reach[b] {
		return false
	}
	return d.pre[a] <= d.pre[b] && d.post[b] <= d.post[a]
}

// StrictlyDominates reports whether a dominates b and a != b.
func (d *DomTree) StrictlyDominates(a, b int) bool {
	return a != b && d.Dominates(a, b)
}

// Children returns n's children in the dominator tree.
func (d *DomTree) Children(n int) []int { return d.kids[n] }

// BackEdges returns the edges u→v with v dominating u — the loop back
// edges of a reducible graph. Their targets are the loop heads where
// range analysis widens.
func BackEdges(g Graph, d *DomTree) [][2]int {
	var out [][2]int
	for u := 0; u < g.Len(); u++ {
		if !d.Reachable(u) {
			continue
		}
		for _, v := range g.Succs(u) {
			if d.Dominates(v, u) {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// LoopHeads returns the set of back-edge targets.
func LoopHeads(g Graph, d *DomTree) map[int]bool {
	heads := map[int]bool{}
	for _, e := range BackEdges(g, d) {
		heads[e[1]] = true
	}
	return heads
}
