package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Pair is an ordered pair (From, To) — one edge of a binary relation.
type Pair struct {
	From, To ID
}

// Relation is a finite binary relation represented as an adjacency map.
// The zero value is not usable; construct relations with New.
type Relation struct {
	succ map[ID]Set
	size int
}

// New returns an empty relation, optionally seeded with pairs.
func New(pairs ...Pair) *Relation {
	r := &Relation{succ: make(map[ID]Set)}
	for _, p := range pairs {
		r.Add(p.From, p.To)
	}
	return r
}

// FromEdges builds a relation from (from, to) edge tuples given as a flat
// list: FromEdges(a, b, c, d) relates a→b and c→d. It panics on an odd
// number of arguments; it is intended for tests and static tables.
func FromEdges(ids ...ID) *Relation {
	if len(ids)%2 != 0 {
		panic("relation.FromEdges: odd number of ids")
	}
	r := New()
	for i := 0; i < len(ids); i += 2 {
		r.Add(ids[i], ids[i+1])
	}
	return r
}

// Add inserts the pair (from, to). Adding an existing pair is a no-op.
func (r *Relation) Add(from, to ID) {
	s, ok := r.succ[from]
	if !ok {
		s = make(Set)
		r.succ[from] = s
	}
	if !s.Has(to) {
		s.Add(to)
		r.size++
	}
}

// Remove deletes the pair (from, to) if present.
func (r *Relation) Remove(from, to ID) {
	if s, ok := r.succ[from]; ok && s.Has(to) {
		delete(s, to)
		r.size--
		if len(s) == 0 {
			delete(r.succ, from)
		}
	}
}

// Has reports whether (from, to) is in the relation.
func (r *Relation) Has(from, to ID) bool {
	s, ok := r.succ[from]
	return ok && s.Has(to)
}

// Len returns the number of pairs in the relation.
func (r *Relation) Len() int { return r.size }

// IsEmpty reports whether the relation contains no pairs.
func (r *Relation) IsEmpty() bool { return r.size == 0 }

// Pairs returns all pairs sorted by (From, To). The slice is fresh.
func (r *Relation) Pairs() []Pair {
	ps := make([]Pair, 0, r.size)
	for from, tos := range r.succ {
		for to := range tos {
			ps = append(ps, Pair{from, to})
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].From != ps[j].From {
			return ps[i].From < ps[j].From
		}
		return ps[i].To < ps[j].To
	})
	return ps
}

// Domain returns the set of elements with at least one outgoing pair.
func (r *Relation) Domain() Set {
	s := make(Set, len(r.succ))
	for from := range r.succ {
		s.Add(from)
	}
	return s
}

// Range returns the set of elements with at least one incoming pair.
func (r *Relation) Range() Set {
	s := make(Set)
	for _, tos := range r.succ {
		for to := range tos {
			s.Add(to)
		}
	}
	return s
}

// Clone returns a deep copy of r.
func (r *Relation) Clone() *Relation {
	c := New()
	for from, tos := range r.succ {
		for to := range tos {
			c.Add(from, to)
		}
	}
	return c
}

// Union returns r ∪ others as a new relation.
func (r *Relation) Union(others ...*Relation) *Relation {
	u := r.Clone()
	for _, o := range others {
		for from, tos := range o.succ {
			for to := range tos {
				u.Add(from, to)
			}
		}
	}
	return u
}

// Union returns the union of all given relations as a new relation.
// Union() with no arguments returns the empty relation.
func Union(rs ...*Relation) *Relation {
	u := New()
	return u.Union(rs...)
}

// Inter returns r ∩ o as a new relation.
func (r *Relation) Inter(o *Relation) *Relation {
	u := New()
	for from, tos := range r.succ {
		for to := range tos {
			if o.Has(from, to) {
				u.Add(from, to)
			}
		}
	}
	return u
}

// Diff returns r \ o as a new relation.
func (r *Relation) Diff(o *Relation) *Relation {
	u := New()
	for from, tos := range r.succ {
		for to := range tos {
			if !o.Has(from, to) {
				u.Add(from, to)
			}
		}
	}
	return u
}

// Compose returns the relational join r.o = {(a, c) | ∃b. (a,b) ∈ r ∧ (b,c) ∈ o}.
func (r *Relation) Compose(o *Relation) *Relation {
	u := New()
	for a, bs := range r.succ {
		for b := range bs {
			for c := range o.succ[b] {
				u.Add(a, c)
			}
		}
	}
	return u
}

// Transpose returns ~r = {(b, a) | (a, b) ∈ r}.
func (r *Relation) Transpose() *Relation {
	u := New()
	for a, bs := range r.succ {
		for b := range bs {
			u.Add(b, a)
		}
	}
	return u
}

// TransitiveClosure returns r⁺ as a new relation.
func (r *Relation) TransitiveClosure() *Relation {
	u := r.Clone()
	// Per-source DFS over the original edges; for the small graphs LCM
	// analyses build this is cheaper than Floyd–Warshall on a sparse map.
	for src := range r.succ {
		seen := make(Set)
		stack := make([]ID, 0, len(r.succ[src]))
		//determlint:ignore DFS worklist; visit order cannot affect the closure (set semantics)
		for to := range r.succ[src] {
			stack = append(stack, to)
		}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen.Has(n) {
				continue
			}
			seen.Add(n)
			u.Add(src, n)
			//determlint:ignore DFS worklist; visit order cannot affect the closure (set semantics)
			for to := range r.succ[n] {
				if !seen.Has(to) {
					stack = append(stack, to)
				}
			}
		}
	}
	return u
}

// ReflexiveClosure returns r ∪ id(universe) as a new relation.
func (r *Relation) ReflexiveClosure(universe Set) *Relation {
	u := r.Clone()
	for id := range universe {
		u.Add(id, id)
	}
	return u
}

// Identity returns the identity relation over the given set.
func Identity(universe Set) *Relation {
	r := New()
	for id := range universe {
		r.Add(id, id)
	}
	return r
}

// Restrict returns the sub-relation with From ∈ dom and To ∈ rng.
// A nil dom or rng means "no constraint" on that side.
func (r *Relation) Restrict(dom, rng Set) *Relation {
	u := New()
	for from, tos := range r.succ {
		if dom != nil && !dom.Has(from) {
			continue
		}
		for to := range tos {
			if rng != nil && !rng.Has(to) {
				continue
			}
			u.Add(from, to)
		}
	}
	return u
}

// Filter returns the sub-relation of pairs satisfying keep.
func (r *Relation) Filter(keep func(from, to ID) bool) *Relation {
	u := New()
	for from, tos := range r.succ {
		for to := range tos {
			if keep(from, to) {
				u.Add(from, to)
			}
		}
	}
	return u
}

// IsIrreflexive reports whether no element relates to itself.
func (r *Relation) IsIrreflexive() bool {
	for from, tos := range r.succ {
		if tos.Has(from) {
			return false
		}
	}
	return true
}

// IsAcyclic reports whether the relation, viewed as a directed graph,
// contains no cycle (including self-loops).
func (r *Relation) IsAcyclic() bool {
	_, acyclic := r.topoSort()
	return acyclic
}

// FindCycle returns one cycle as a sequence of IDs (first element repeated
// at the end), or nil if the relation is acyclic. The cycle returned is
// deterministic for a given relation.
func (r *Relation) FindCycle() []ID {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[ID]int)
	parent := make(map[ID]ID)

	starts := make([]ID, 0, len(r.succ))
	for from := range r.succ {
		starts = append(starts, from)
	}
	sort.Ints(starts)

	var cycleStart, cycleEnd ID
	found := false

	var dfs func(n ID) bool
	dfs = func(n ID) bool {
		color[n] = gray
		for _, m := range r.succ[n].Sorted() {
			switch color[m] {
			case white:
				parent[m] = n
				if dfs(m) {
					return true
				}
			case gray:
				cycleStart, cycleEnd = m, n
				return true
			}
		}
		color[n] = black
		return false
	}

	for _, s := range starts {
		if color[s] == white && dfs(s) {
			found = true
			break
		}
	}
	if !found {
		return nil
	}
	// Reconstruct the cycle from cycleEnd back to cycleStart.
	var rev []ID
	for n := cycleEnd; n != cycleStart; n = parent[n] {
		rev = append(rev, n)
	}
	rev = append(rev, cycleStart)
	cycle := make([]ID, 0, len(rev)+1)
	for i := len(rev) - 1; i >= 0; i-- {
		cycle = append(cycle, rev[i])
	}
	cycle = append(cycle, cycleStart)
	return cycle
}

// TopoOrder returns a topological order of every element appearing in the
// relation. ok is false if the relation is cyclic, in which case order is
// nil. Ties are broken by ascending ID, so the order is deterministic.
func (r *Relation) TopoOrder() (order []ID, ok bool) {
	return r.topoSort()
}

func (r *Relation) topoSort() ([]ID, bool) {
	indeg := make(map[ID]int)
	for from, tos := range r.succ {
		if _, ok := indeg[from]; !ok {
			indeg[from] = 0
		}
		for to := range tos {
			indeg[to]++
		}
	}
	// Min-heap behaviour via sorted ready list (graphs are small).
	ready := make([]ID, 0, len(indeg))
	for n, d := range indeg {
		if d == 0 {
			ready = append(ready, n)
		}
	}
	sort.Ints(ready)
	order := make([]ID, 0, len(indeg))
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		newReady := false
		for to := range r.succ[n] {
			indeg[to]--
			if indeg[to] == 0 {
				ready = append(ready, to)
				newReady = true
			}
		}
		if newReady {
			sort.Ints(ready)
		}
	}
	if len(order) != len(indeg) {
		return nil, false
	}
	return order, true
}

// IsTotalOrderOn reports whether r is a strict total order on the given set:
// irreflexive, transitive, and any two distinct elements comparable.
func (r *Relation) IsTotalOrderOn(s Set) bool {
	if !r.IsIrreflexive() || !r.IsAcyclic() {
		return false
	}
	t := r.TransitiveClosure()
	ids := s.Sorted()
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if !t.Has(a, b) && !t.Has(b, a) {
				return false
			}
		}
	}
	return true
}

// Equal reports whether r and o contain exactly the same pairs.
func (r *Relation) Equal(o *Relation) bool {
	if r.size != o.size {
		return false
	}
	for from, tos := range r.succ {
		for to := range tos {
			if !o.Has(from, to) {
				return false
			}
		}
	}
	return true
}

// String renders the relation as a sorted list of a→b pairs.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range r.Pairs() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d→%d", p.From, p.To)
	}
	b.WriteByte('}')
	return b.String()
}
