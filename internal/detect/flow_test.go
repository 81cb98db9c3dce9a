package detect

// Differential oracle for the CSR value-flow graph: a naive map-adjacency
// DFS, written independently here, must agree with flowGraph.from on the
// (reached, viaGep) verdict of every (source, destination) pair. The edge
// enumeration is intentionally duplicated — if buildFlowGraph's CSR
// packing or counting sort drops or misroutes an edge, the reference
// disagrees.

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/alias"
	"lcm/internal/cryptolib"
	"lcm/internal/ir"
	"lcm/internal/litmus"
)

type refEdge struct {
	to  int
	gep bool
}

// refFlowEdges enumerates the value-flow edges with plain maps.
func refFlowEdges(g *acfg.Graph, al *alias.Analysis, cfgReach func(from, to int) bool) map[int][]refEdge {
	adj := map[int][]refEdge{}
	add := func(src, to int, gep bool) {
		adj[src] = append(adj[src], refEdge{to: to, gep: gep})
	}
	for _, n := range g.Nodes {
		if n.Instr == nil {
			continue
		}
		switch {
		case n.Kind == acfg.NHavoc:
			for _, defs := range n.ArgDefs {
				for _, d := range defs {
					add(d, n.ID, false)
				}
			}
		case n.IsLoad():
		case n.IsStore():
			for _, d := range n.ArgDefs[0] {
				add(d, n.ID, false)
			}
		case n.Kind == acfg.NInstr:
			switch n.Instr.Op {
			case ir.OpBin, ir.OpCmp, ir.OpCast, ir.OpGEP, ir.OpFieldGEP:
				for i, defs := range n.ArgDefs {
					gep := n.Instr.Op == ir.OpGEP && i == 1
					for _, d := range defs {
						add(d, n.ID, gep)
					}
				}
			}
		}
	}
	for _, s := range g.Nodes {
		if !s.IsStore() {
			continue
		}
		for _, l := range g.Nodes {
			if l.IsLoad() && al.MayAlias(s, l) && cfgReach(s.ID, l.ID) {
				add(s.ID, l.ID, false)
			}
		}
	}
	return adj
}

// refReach runs the reference DFS over (node, crossed-gep) states.
func refReach(adj map[int][]refEdge, src int) (reached, viaGep map[int]bool) {
	reached, viaGep = map[int]bool{}, map[int]bool{}
	type state struct {
		node int
		gep  bool
	}
	visited := map[state]bool{}
	stack := []state{{node: src}}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[st] {
			continue
		}
		visited[st] = true
		reached[st.node] = true
		if st.gep {
			viaGep[st.node] = true
		}
		for _, e := range adj[st.node] {
			next := state{node: e.to, gep: st.gep || e.gep}
			if !visited[next] {
				stack = append(stack, next)
			}
		}
	}
	return reached, viaGep
}

// diffFlowFunc pins the CSR graph against the reference for one function,
// using every load and store as a source.
func diffFlowFunc(t *testing.T, label string, m *ir.Module, fn string) {
	t.Helper()
	g, err := acfg.Build(m, fn, acfg.Options{})
	if err != nil {
		t.Fatalf("%s/%s: acfg: %v", label, fn, err)
	}
	al := alias.Analyze(g)
	fg := buildFlowGraph(g, al)
	adj := refFlowEdges(g, al, g.Reach())
	for _, src := range g.Nodes {
		if !src.IsLoad() && !src.IsStore() {
			continue
		}
		r := fg.from(src.ID)
		wantReach, wantGep := refReach(adj, src.ID)
		for dst := 0; dst < g.Len(); dst++ {
			gotOK, gotGep := r.reaches(dst)
			if gotOK != wantReach[dst] || gotGep != wantGep[dst] {
				t.Fatalf("%s/%s: from(%d).reaches(%d) = (%v,%v), reference (%v,%v)",
					label, fn, src.ID, dst, gotOK, gotGep, wantReach[dst], wantGep[dst])
			}
		}
		if r.popcount() != len(wantReach) {
			t.Fatalf("%s/%s: from(%d) reaches %d nodes, reference %d",
				label, fn, src.ID, r.popcount(), len(wantReach))
		}
	}
}

// refCSR packs the reference adjacency into CSR arrays. refFlowEdges adds
// edges in the order the pairwise scan found them (value edges by node,
// then data.rf hops store by store, loads ascending), so per source this is
// the exact edge order buildFlowGraph must produce.
func refCSR(n int, adj map[int][]refEdge) (start, edges []int32) {
	start = make([]int32, n+1)
	for src := 0; src < n; src++ {
		for _, e := range adj[src] {
			p := int32(e.to) << 1
			if e.gep {
				p |= 1
			}
			edges = append(edges, p)
		}
		start[src+1] = int32(len(edges))
	}
	return start, edges
}

// checkFlowCSR requires, for every defined function of m, that the
// indexed data.rf build yields exactly the pairwise scan's CSR arrays.
func checkFlowCSR(t testing.TB, label string, m *ir.Module) {
	t.Helper()
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		g, err := acfg.Build(m, f.Nm, acfg.Options{})
		if err != nil {
			t.Fatalf("%s/%s: acfg: %v", label, f.Nm, err)
		}
		al := alias.Analyze(g)
		fg := buildFlowGraph(g, al)
		start, edges := refCSR(g.Len(), refFlowEdges(g, al, g.Reach()))
		if !slices.Equal(fg.start, start) {
			t.Fatalf("%s/%s: CSR start differs from the pairwise scan", label, f.Nm)
		}
		if !slices.Equal(fg.edges, edges) {
			t.Fatalf("%s/%s: CSR edges differ from the pairwise scan (%d vs %d edges)",
				label, f.Nm, len(fg.edges), len(edges))
		}
	}
}

func TestFlowGraphMatchesReferenceLitmus(t *testing.T) {
	for _, c := range litmus.All() {
		m := compile(t, c.Source)
		for _, f := range m.Funcs {
			if !f.IsDecl() {
				diffFlowFunc(t, "litmus/"+c.Name, m, f.Nm)
			}
		}
	}
}

func TestFlowGraphMatchesReferenceCryptolib(t *testing.T) {
	// Bound the sweep to small and mid-size functions: the reference DFS is
	// map-backed and one donna limb function alone would dominate the
	// package's test time without adding edge-shape coverage.
	const maxNodes = 400
	for _, lib := range cryptolib.All() {
		m := compile(t, lib.Source)
		for _, f := range m.Funcs {
			if f.IsDecl() {
				continue
			}
			g, err := acfg.Build(m, f.Nm, acfg.Options{})
			if err != nil {
				t.Fatalf("%s/%s: acfg: %v", lib.Name, f.Nm, err)
			}
			if g.Len() > maxNodes {
				continue
			}
			diffFlowFunc(t, "cryptolib/"+lib.Name, m, f.Nm)
		}
	}
}

// TestShardDeterminism pins the sharded candidate search to the serial
// one: on donna's Montgomery ladder — the heaviest real subject — both
// engines must produce identical findings, counters, and certificates at
// ShardWorkers 1 and 8, including where the MaxQueries budget cut lands.
func TestShardDeterminism(t *testing.T) {
	lib, ok := cryptolib.Lookup("donna")
	if !ok {
		t.Fatal("donna corpus entry missing")
	}
	m := compile(t, lib.Source)
	const fn = "crypto_scalarmult"
	// Both budgets cut the search mid-candidate-loop: where the cut lands
	// is the most order-sensitive output, so equality here subsumes the
	// easy unbudgeted case (which the harness-level golden tests cover).
	for _, mk := range []func() Config{DefaultPHT, DefaultSTL, DefaultPSF, DefaultIMP, DefaultSS} {
		for _, budget := range []int{200, 1000} {
			cfg1 := mk()
			cfg1.ShardWorkers = 1
			cfg1.MaxQueries = budget
			r1, err := AnalyzeFunc(m, fn, cfg1)
			if err != nil {
				t.Fatalf("%s j=1: %v", cfg1.Engine, err)
			}
			cfg8 := mk()
			cfg8.ShardWorkers = 8
			cfg8.MaxQueries = budget
			r8, err := AnalyzeFunc(m, fn, cfg8)
			if err != nil {
				t.Fatalf("%s j=8: %v", cfg8.Engine, err)
			}
			if !reflect.DeepEqual(r1.Findings, r8.Findings) {
				t.Errorf("%s budget=%d: findings differ between j=1 (%d) and j=8 (%d)",
					cfg1.Engine, budget, len(r1.Findings), len(r8.Findings))
			}
			if !reflect.DeepEqual(r1.Counts(), r8.Counts()) {
				t.Errorf("%s budget=%d: counts differ: %v vs %v", cfg1.Engine, budget, r1.Counts(), r8.Counts())
			}
			type counters struct {
				queries, candidates, pruned, discharged, skipped int
				budgetHit                                        bool
			}
			c1 := counters{r1.Queries, r1.Candidates, r1.Pruned, r1.Discharged, r1.SkippedQueries, r1.BudgetHit}
			c8 := counters{r8.Queries, r8.Candidates, r8.Pruned, r8.Discharged, r8.SkippedQueries, r8.BudgetHit}
			if c1 != c8 {
				t.Errorf("%s budget=%d: counters differ: %+v vs %+v", cfg1.Engine, budget, c1, c8)
			}
			if len(r1.Certificates) != len(r8.Certificates) {
				t.Errorf("%s budget=%d: certificate count differs: %d vs %d",
					cfg1.Engine, budget, len(r1.Certificates), len(r8.Certificates))
			} else {
				for i := range r1.Certificates {
					if r1.Certificates[i].Key != r8.Certificates[i].Key {
						t.Errorf("%s budget=%d: certificate %d key differs: %s vs %s",
							cfg1.Engine, budget, i, r1.Certificates[i].Key, r8.Certificates[i].Key)
					}
				}
			}
		}
	}
}

// reaches reports whether the source's value reaches node dst, and whether
// some reaching path crosses a gep index.
func (r reachInfo) reaches(dst int) (ok, viaGEPIndex bool) {
	if r.reached == nil {
		return false, false
	}
	return r.reached.Has(dst), r.viaGep.Has(dst)
}

// popcount returns the number of reached nodes.
func (r reachInfo) popcount() int {
	total := 0
	for _, w := range r.reached {
		total += bits.OnesCount64(w)
	}
	return total
}
