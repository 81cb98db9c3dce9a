package detect

// Differential oracle for the CSR value-flow graph: a naive map-adjacency
// DFS, written independently here, must agree with flowGraph.from's
// sparse reach list on the (reached, viaGep) verdict of every (source,
// destination) pair, and the list must name each reached node once. The edge
// enumeration is intentionally duplicated — if buildFlowGraph's CSR
// packing or counting sort drops or misroutes an edge, the reference
// disagrees.

import (
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/alias"
	"lcm/internal/cryptolib"
	"lcm/internal/dataflow"
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
		list := fg.from(src.ID)
		r := list.dense(g.Len())
		wantReach, wantGep := refReach(adj, src.ID)
		if len(list) != len(wantReach) || int(list[0]>>1) != src.ID {
			t.Fatalf("%s/%s: from(%d) lists %d entries starting at node %d, reference reaches %d nodes",
				label, fn, src.ID, len(list), list[0]>>1, len(wantReach))
		}
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

// TestReachListMatchesReferenceRandom runs the sparse traversal over
// random small graphs, cycles included, with gep hops on random edges.
// Corpus graphs rarely reach a node first without a gep hop and later
// through one, which is where the traversal must set the listed entry's
// flag and explore again; random edge orders exercise both orders.
func TestReachListMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 3000; iter++ {
		n := 2 + rng.Intn(11)
		adj := map[int][]refEdge{}
		f := &flowGraph{start: make([]int32, n+1), memo: make([]reachInfo, n)}
		for src := 0; src < n; src++ {
			for k := rng.Intn(4); k > 0; k-- {
				e := refEdge{to: rng.Intn(n), gep: rng.Intn(3) == 0}
				adj[src] = append(adj[src], e)
				p := int32(e.to) << 1
				if e.gep {
					p |= 1
				}
				f.edges = append(f.edges, p)
			}
			f.start[src+1] = int32(len(f.edges))
		}
		for src := 0; src < n; src++ {
			list := f.from(src)
			r := list.dense(n)
			wantReach, wantGep := refReach(adj, src)
			if len(list) != len(wantReach) || int(list[0]>>1) != src {
				t.Fatalf("iter %d: from(%d) = %v, reference reaches %d nodes", iter, src, list, len(wantReach))
			}
			for dst := 0; dst < n; dst++ {
				if ok, gep := r.reaches(dst); ok != wantReach[dst] || gep != wantGep[dst] {
					t.Fatalf("iter %d: from(%d).reaches(%d) = (%v,%v), reference (%v,%v); graph %v",
						iter, src, dst, ok, gep, wantReach[dst], wantGep[dst], adj)
				}
			}
		}
	}
}

// TestFlowFromConcurrent has several goroutines ask one graph for every
// source's reach list at once, as harness workers do when their analyses
// share one cached frontend, each in its own order; each list must equal a
// serial computation on a fresh graph. Run with -race: the memo and the
// pooled scratch are shared state.
func TestFlowFromConcurrent(t *testing.T) {
	lib, ok := cryptolib.Lookup("secretbox")
	if !ok {
		t.Fatal("secretbox corpus entry missing")
	}
	g, err := acfg.Build(compile(t, lib.Source), "crypto_secretbox_open", acfg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	al := alias.Analyze(g)
	serial := buildFlowGraph(g, al)
	shared := buildFlowGraph(g, al)
	var srcs []int
	for _, n := range g.Nodes {
		if n.IsLoad() || n.IsStore() {
			srcs = append(srcs, n.ID)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range srcs {
				src := srcs[(i*(2*w+1)+w)%len(srcs)]
				if got := shared.from(src); !slices.Equal(got, serial.compute(src)) {
					t.Errorf("worker %d: from(%d) differs from a serial traversal", w, src)
					return
				}
			}
		}(w)
	}
	wg.Wait()
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

// denseReach is a sparse reach list expanded into the two bitsets the
// references probe: reached nodes, and nodes some reaching path crosses a
// gep index hop to arrive at.
type denseReach struct{ reached, viaGep dataflow.BitSet }

func (r reachInfo) dense(n int) denseReach {
	out := denseReach{reached: dataflow.NewBitSet(n), viaGep: dataflow.NewBitSet(n)}
	for _, e := range r {
		out.reached.Set(int(e >> 1))
		if e&1 != 0 {
			out.viaGep.Set(int(e >> 1))
		}
	}
	return out
}

// reaches reports whether the source's value reaches node dst, and whether
// some reaching path crosses a gep index.
func (r denseReach) reaches(dst int) (ok, viaGEPIndex bool) {
	return r.reached.Has(dst), r.viaGep.Has(dst)
}

// popcount returns the number of reached nodes.
func (r denseReach) popcount() int {
	total := 0
	for _, w := range r.reached {
		total += bits.OnesCount64(w)
	}
	return total
}

// denseFlow memoizes each source's expanded reach for the references.
type denseFlow struct {
	fl   *flowGraph
	memo map[int]denseReach
}

func newDenseFlow(fl *flowGraph) *denseFlow {
	return &denseFlow{fl: fl, memo: map[int]denseReach{}}
}

func (df *denseFlow) from(src int) denseReach {
	r, ok := df.memo[src]
	if !ok {
		r = df.fl.from(src).dense(len(df.fl.start) - 1)
		df.memo[src] = r
	}
	return r
}
