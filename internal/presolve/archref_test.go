package presolve

// The reference for the arch-witness replay memo: refArchWitness is the
// per-query builder the memo replaced. It collects each query's takes in
// a fresh map, replays a fresh maximal path from entry, and allocates that
// path and its take list anew; witnessArch must return a certificate
// equal to it on every query (see TestArchWitnessMatchesReference).

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/ir"
	"lcm/internal/litmus"
)

func (a *Analysis) refArchWitness(key string, nodes []int) *Certificate {
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
	takes := map[int]bool{}
	cur := g.Entry
	for _, w := range ord {
		if w == cur {
			continue
		}
		var seg []int
		if cur == g.Entry {
			seg = a.entryPath(w)
		} else {
			seg = a.bfsPath(cur, w)
		}
		if seg == nil {
			return nil
		}
		for i := 0; i+1 < len(seg); i++ {
			if t, ok := takeFor(g, seg[i], seg[i+1]); ok {
				if prev, dup := takes[seg[i]]; dup && prev != t {
					return nil
				}
				takes[seg[i]] = t
			}
		}
		cur = w
	}

	// Replay the take assignment from entry: the selected path must visit
	// every waypoint, and extends maximally so the arch Iff closes. The
	// path is marked on the search scratch, under an epoch of its own.
	var path []int
	sc, ep := &a.bfs, a.nextEpoch()
	for n := g.Entry; ; {
		path = append(path, n)
		sc.stamp[n] = ep
		succ := g.Succs(n)
		if len(succ) == 0 {
			break
		}
		next := succ[0]
		if g.Nodes[n].IsBranch() && len(succ) >= 2 && succ[0] != succ[1] {
			t, ok := takes[n]
			if !ok {
				t = true
				takes[n] = t
			}
			if !t {
				next = succ[1]
			}
		}
		if sc.stamp[next] == ep {
			break
		}
		n = next
	}
	for _, w := range ord {
		if sc.stamp[w] != ep {
			return nil
		}
	}

	tl := make([]BranchTake, 0, len(takes))
	for br, t := range takes {
		tl = append(tl, BranchTake{Branch: br, Take: t})
	}
	slices.SortFunc(tl, func(x, y BranchTake) int { return x.Branch - y.Branch })
	return &Certificate{
		Kind: KindArchWitness,
		Fn:   g.Fn,
		Key:  key,
		Arch: &ArchFact{
			Nodes: dedupSorted(nodes),
			Path:  path,
			Takes: tl,
		},
	}
}

// CheckArchWitnesses feeds the branch-free queries, in order, to one
// Analysis of g and compares each memoised certificate with the
// reference's. It returns the number of distinct replays the memo made.
func CheckArchWitnesses(g *acfg.Graph, queries [][]int) (int, error) {
	a := NewAnalysis(NewFacts(g, nil, nil), nil) // arch witnesses read only the graph
	for _, nodes := range queries {
		key := archKey(nodes)
		got, want := a.witnessArch(nodes), a.refArchWitness(key, nodes)
		if !reflect.DeepEqual(got, want) {
			return 0, fmt.Errorf("%s: memoised witness %s, reference %s", key, describe(got), describe(want))
		}
	}
	return len(a.replays), nil
}

func describe(c *Certificate) string {
	if c == nil {
		return "nil"
	}
	return fmt.Sprintf("path=%v takes=%v", c.Arch.Path, c.Arch.Takes)
}

// TestArchWitnessRejectsOffPathWaypoint demotes each litmus branch in
// turn to a non-branch node with two successors. The segments still
// record a take for it, but the replay follows its first successor, so a
// waypoint down the second arm can be off the replayed path: the memoised
// builder must reject such a query as the reference does. A well-formed
// A-CFG gives every node with two successors a branch instruction, so
// the real traffic never reaches this check.
func TestArchWitnessRejectsOffPathWaypoint(t *testing.T) {
	rejected := 0
	for _, c := range litmus.All() {
		g := buildGraph(t, c.Source, c.Fn)
		for b, n := range g.Nodes {
			succ := g.Succs(b)
			if !n.IsBranch() || len(succ) < 2 || succ[0] == succ[1] {
				continue
			}
			in := n.Instr
			n.Instr = &ir.Instr{Op: ir.OpBr}
			a := NewAnalysis(NewFacts(g, nil, nil), nil)
			for _, q := range [][]int{{succ[1]}, {b, succ[1]}} {
				key := archKey(q)
				got, want := a.witnessArch(q), a.refArchWitness(key, q)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s: memoised witness %s, reference %s", c.Name, key, describe(got), describe(want))
				}
				if want == nil {
					rejected++
				}
			}
			n.Instr = in
		}
	}
	if rejected == 0 {
		t.Fatal("no query reached the waypoint check")
	}
	t.Logf("%d queries rejected off the replayed path", rejected)
}
