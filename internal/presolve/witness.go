package presolve

import (
	"encoding/binary"
	"slices"

	"lcm/internal/acfg"
	"lcm/internal/dataflow"
)

// The witness rule is the dual of the refutation rule: instead of proving a query
// UNSAT it constructs an explicit satisfying assignment of the S-AEG
// encoding and lets the engine record the finding without a solver call.
// The encoding admits a closed-form model: the take variables select a
// unique maximal architectural path from entry (encodeArch asserts
// arch(n) ⟺ a take-consistent predecessor executes, and non-branch nodes
// have a single successor), and every other constraint is an implication
// that an all-false assignment of the remaining misspec/transin variables
// satisfies vacuously. A witness therefore consists of
//
//   - a take assignment whose selected path visits the query branch b,
//   - misspec(b) = 1 (arch(b) holds — b is on the path), and
//   - a transient fetch set: the least fixpoint of the window's data-
//     feasibility clause over nodes fetchable down the arm the take value
//     mispredicts, seeded by definitions on the architectural path.
//
// If the fetch set covers the query's Trans nodes (and path ∪ fetch its
// Exec nodes), the assignment satisfies every asserted clause, so the
// query is SAT. Like refutations, witnesses are untrusted: -audit-presolve
// replays each one through the solver and asserts it answers Sat.

// BranchTake is one branch's direction in a witness's take assignment.
type BranchTake struct {
	Branch int  `json:"branch"`
	Take   bool `json:"take"`
}

// satWitness is the canonical model fragment for one (branch, take) pair:
// the take-selected architectural path (nil when the entry cannot reach
// the branch) and the transient-fetch fixpoint.
type satWitness struct {
	*replayed
	fetch     []bool
	fetchList []int // indices of fetch, ascending (certificate form)
}

// witnessFor returns (computing on first use) the canonical witness of
// misspeculating branch b with take(b)=v.
func (a *Analysis) witnessFor(b int, v bool) *satWitness {
	k := takeKey{b, v}
	if w, ok := a.wit[k]; ok {
		return w
	}
	w := a.buildWitness(b, v)
	a.wit[k] = w
	return w
}

func (a *Analysis) buildWitness(b int, v bool) *satWitness {
	g := a.f.G
	// The entry tree's path to b is take-realizable, because each hop is
	// a successor edge and a simple path resolves every branch on it at
	// most once: the replay follows it to b, then continues under
	// take(b)=v.
	if !a.segmentTakes(g.Entry, b) {
		a.clearTakes()
		return &satWitness{} // entry cannot reach b: refutation territory
	}
	a.setTake(b, v)
	r := a.replay()

	// Transient fetch set: least fixpoint of the data-feasibility clause
	// over the window nodes fetchable down arm(v). The least fixpoint is
	// order-independent; the ascending sweep keeps the round count
	// reproducible.
	fetch := make([]bool, g.Len())
	var fl, elig []int
	a.win.ForEachWindowNode(b, func(id int, arms [2]bool) {
		if arms[arm(v)] {
			elig = append(elig, id)
		}
	})
	for changed := true; changed; {
		changed = false
		for _, id := range elig {
			if fetch[id] {
				continue
			}
			fed := true
			for _, grp := range g.Nodes[id].ArgDefs {
				if len(grp) == 0 {
					continue
				}
				grpFed := false
				for _, d := range grp {
					if r.on.Has(d) || fetch[d] {
						grpFed = true
						break
					}
				}
				if !grpFed {
					fed = false
					break
				}
			}
			if fed {
				fetch[id] = true
				fl = append(fl, id)
				changed = true
			}
		}
	}
	slices.Sort(fl)
	return &satWitness{replayed: r, fetch: fetch, fetchList: fl}
}

// takeFor reports the take value that routes branch p to successor q,
// sharing the encoder's rule: take=true selects the first successor. The
// second result is false when the edge is unconditional (p is not a
// proper branch, or both arms coincide).
func takeFor(g *acfg.Graph, p, q int) (bool, bool) {
	succ := g.Succs(p)
	if len(succ) < 2 || succ[0] == succ[1] {
		return false, false
	}
	return succ[0] == q, true
}

// witness decides whether window query q is statically SAT by explicit
// model construction. On success the certificate records the take
// assignment, architectural path, and transient fetch set; audit mode
// replays the query asserting the solver also answers Sat.
func (a *Analysis) witness(q Query) *Certificate {
	for _, v := range []bool{false, true} {
		w := a.witnessFor(q.Branch, v)
		if w.replayed == nil || !a.covers(w, q) {
			continue
		}
		// Path/Takes/Fetch alias the memoized witness: it is immutable once
		// built, certificates are read-only downstream, and copying them per
		// distinct query dominated this function's profile.
		return &Certificate{
			Kind: KindWitness,
			Fn:   a.f.G.Fn,
			Key:  queryKey(q),
			Witness: &WitnessFact{
				Branch: q.Branch,
				Take:   v,
				Trans:  sortedCopy(q.Trans),
				Exec:   sortedCopy(q.Exec),
				Path:   w.path,
				Takes:  w.takes,
				Fetch:  w.fetchList,
			},
		}
	}
	return nil
}

// witnessArch decides a branch-free query — Arch(n) for every queried
// node, the shape of the store-forwarding, prefetcher, and silent-store
// engines — by the same model construction without any transient
// machinery: all misspec and transin variables are false, and the take
// variables route one path through every queried node. The A-CFG is a DAG
// (back edges are cut during construction), so the per-segment take
// assignments can never conflict: two segments sharing an interior node
// would close a cycle. The certificate records the node set, the path,
// and the take assignment; nil means no witness.
func (a *Analysis) witnessArch(nodes []int) *Certificate {
	g := a.f.G
	// Order the waypoints by reachability. Reachability on a DAG is a
	// partial order; if some pair is incomparable no single path covers
	// both and the query is left to the solver (it is in fact UNSAT, but
	// the engines pre-gate chained candidates so the case is dead).
	reach := g.Reach()
	ord := dedupSorted(nodes)
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && reach(ord[j], ord[j-1]); j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	for i := 1; i < len(ord); i++ {
		if !reach(ord[i-1], ord[i]) {
			return nil
		}
	}

	// Take assignments along entry → ord[0] → … → ord[k]; conflicts fail
	// the witness (impossible on a DAG, but checked rather than trusted).
	cur := g.Entry
	for _, w := range ord {
		if w != cur && !a.segmentTakes(cur, w) {
			a.clearTakes()
			return nil
		}
		cur = w
	}

	// An unset branch takes its default, true, so the replayed path
	// depends only on the branches set false: their sorted IDs key the
	// memo, one replay per distinct path. (Graph.Verify pins that only a
	// conditional branch has two successors, so no other node's take
	// could steer the path.) A DAG's arch witnesses share a few dozen
	// paths across thousands of queries.
	falses := a.falses[:0]
	for _, n := range a.taken {
		if a.take[n] == 1 {
			falses = append(falses, n)
		}
	}
	slices.Sort(falses)
	buf := a.keyBuf[:0]
	for _, n := range falses {
		buf = binary.AppendUvarint(buf, uint64(n))
	}
	a.falses, a.keyBuf = falses, buf
	r, hit := a.replays[string(buf)]
	if hit {
		a.clearTakes()
	} else {
		r = a.replay()
		a.replays[string(buf)] = r
	}
	// The selected path must visit every waypoint.
	for _, w := range ord {
		if !r.on.Has(w) {
			return nil
		}
	}
	// Path and Takes alias the shared replay, as witness's do.
	return &Certificate{
		Kind: KindArchWitness,
		Fn:   g.Fn,
		Key:  archKey(nodes),
		Arch: &ArchFact{
			Nodes: dedupSorted(nodes),
			Path:  r.path,
			Takes: r.takes,
		},
	}
}

// segmentTakes records the takes along a shortest path from src to dst,
// walking its parent links back from dst: the entry tree's for the entry
// segment, a fresh search's otherwise. On the entry tree it jumps from
// branch hop to branch hop, skipping the unconditional edges between
// them, which set nothing, so it makes the same setTake calls in the same
// order. It reports false when dst is unreachable or a take conflicts.
func (a *Analysis) segmentTakes(src, dst int) bool {
	g := a.f.G
	if src == g.Entry {
		parent, hop := a.entryTree()
		if parent[dst] < 0 {
			return false
		}
		for c := hop[dst]; c >= 0; c = hop[parent[c]] {
			p := int(parent[c])
			if t, _ := takeFor(g, p, int(c)); !a.setTake(p, t) {
				return false
			}
		}
		return true
	}
	if !a.bfsTree(src, dst) {
		return false
	}
	parent := a.bfs.parent
	for n := dst; n != src; n = int(parent[n]) {
		p := int(parent[n])
		if t, ok := takeFor(g, p, n); ok && !a.setTake(p, t) {
			return false
		}
	}
	return true
}

// replayed is the maximal take-selected path from entry under one take
// assignment, shared by every witness that sets the same branches false.
type replayed struct {
	path  []int // in path order, entry first
	on    dataflow.BitSet
	takes []BranchTake // the full assignment, sorted by branch
}

// replay follows the take-selected successors from entry until the path
// closes on itself or exits: the Iff semantics of encodeArch force the
// architectural set to be exactly such a maximal path, so stopping early
// would leave a node whose selected successor is un-executed. A branch
// with no take set takes its default, true. The take scratch becomes the
// replay's full assignment and is cleared.
func (a *Analysis) replay() *replayed {
	g := a.f.G
	r := &replayed{path: []int{g.Entry}, on: dataflow.NewBitSet(g.Len())}
	r.on.Set(g.Entry)
	for cur := g.Entry; ; {
		succ := g.Succs(cur)
		if len(succ) == 0 {
			break
		}
		next := succ[0]
		if g.Nodes[cur].IsBranch() && len(succ) >= 2 && succ[0] != succ[1] {
			if !a.setTake(cur, true) { // set false before
				next = succ[1]
			}
		}
		if r.on.Has(next) {
			break
		}
		r.on.Set(next)
		r.path = append(r.path, next)
		cur = next
	}
	slices.Sort(a.taken)
	r.takes = make([]BranchTake, len(a.taken))
	for i, n := range a.taken {
		r.takes[i] = BranchTake{Branch: n, Take: a.take[n] == 2}
	}
	a.clearTakes()
	return r
}

// setTake records take(n)=t in the take scratch, reporting false when n
// was set the other way before.
func (a *Analysis) setTake(n int, t bool) bool {
	v := int8(1)
	if t {
		v = 2
	}
	if a.take[n] == 0 {
		a.take[n] = v
		a.taken = append(a.taken, n)
	}
	return a.take[n] == v
}

// clearTakes empties the take scratch.
func (a *Analysis) clearTakes() {
	for _, n := range a.taken {
		a.take[n] = 0
	}
	a.taken = a.taken[:0]
}

// nextEpoch allocates the search scratch on first use and starts a pass
// over it: a node is marked in the pass when its stamp equals the
// returned epoch, so starting a pass clears nothing.
func (a *Analysis) nextEpoch() uint32 {
	g := a.f.G
	sc := &a.bfs
	if len(sc.parent) < g.Len() {
		sc.parent = make([]int32, g.Len())
		sc.stamp = make([]uint32, g.Len())
		// Topological positions prune the search: in a DAG, a node
		// ordered after dst cannot reach it, and dropping such nodes
		// cannot perturb the parent chain of any node that can. The
		// returned path — and so every certificate — is unchanged.
		sc.ord = make([]int32, g.Len())
		for i, id := range g.Topo() {
			sc.ord[id] = int32(i)
		}
	}
	sc.epoch++
	if sc.epoch == 0 { // stamp wraparound: drop every stale mark
		clear(sc.stamp)
		sc.epoch = 1
	}
	return sc.epoch
}

// bfsTree searches from src for dst over successor edges, deterministic
// in queue order, and reports whether dst is reachable. A shortest path
// is left in the parent links of the search scratch.
func (a *Analysis) bfsTree(src, dst int) bool {
	g := a.f.G
	sc, ep := &a.bfs, a.nextEpoch()
	bound := sc.ord[dst]
	sc.stamp[src], sc.parent[src] = ep, int32(src)
	queue := append(sc.queue[:0], int32(src))
	for head := 0; head < len(queue) && sc.stamp[dst] != ep; head++ {
		n := int(queue[head])
		for _, s := range g.Succs(n) {
			if sc.stamp[s] != ep && sc.ord[s] <= bound {
				sc.stamp[s], sc.parent[s] = ep, int32(n)
				queue = append(queue, int32(s))
			}
		}
	}
	sc.queue = queue
	return sc.stamp[dst] == ep
}

// entryTree returns the parent links of one entry-rooted BFS tree (-1
// where the entry does not reach), built on first use. Neither bfsTree's
// topological pruning nor its early exit changes the parent of a node
// that reaches dst, so the tree's parent chains are exactly the paths
// bfsTree(Entry, dst) leaves. With them it returns each node's branch
// hop: the nearest node c on its tree path from the entry, itself
// included, whose in-edge from parent[c] leaves a proper branch (-1 when
// no edge on the path does).
func (a *Analysis) entryTree() (parent, hop []int32) {
	g := a.f.G
	if a.entry == nil {
		a.entry, a.hop = make([]int32, g.Len()), make([]int32, g.Len())
		for i := range a.entry {
			a.entry[i] = -1
		}
		a.entry[g.Entry], a.hop[g.Entry] = int32(g.Entry), -1
		queue := []int32{int32(g.Entry)}
		for head := 0; head < len(queue); head++ {
			n := int(queue[head])
			for _, s := range g.Succs(n) {
				if a.entry[s] < 0 {
					a.entry[s], a.hop[s] = int32(n), a.hop[n]
					if _, ok := takeFor(g, n, s); ok {
						a.hop[s] = int32(s)
					}
					queue = append(queue, int32(s))
				}
			}
		}
	}
	return a.entry, a.hop
}

// dedupSorted sorts and deduplicates a node list.
func dedupSorted(ns []int) []int {
	s := sortedCopy(ns)
	out := s[:0]
	for i, n := range s {
		if i == 0 || n != s[i-1] {
			out = append(out, n)
		}
	}
	return out
}

// covers reports whether witness w satisfies every literal of query q.
func (a *Analysis) covers(w *satWitness, q Query) bool {
	for _, t := range q.Trans {
		if !w.fetch[t] {
			return false
		}
	}
	for _, e := range q.Exec {
		if !w.fetch[e] && !w.on.Has(e) {
			return false
		}
	}
	return true
}
