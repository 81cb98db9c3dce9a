package detect

// Differential oracles for the CSR value-flow graph: a naive map-adjacency
// DFS, written independently here, must agree with the per-source DFS
// over the CSR arrays (dfsReach, the traversal the bit-parallel sweep
// replaced, kept as the reference the feeder checks probe) and with the
// sweep itself on the (reached, viaGep) verdict of every (source,
// destination) pair. The edge enumeration is intentionally duplicated —
// if buildFlowGraph's CSR packing or counting sort drops or misroutes an
// edge, the reference disagrees.

import (
	"context"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
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

// refCFGReach is a strict A-CFG reachability test that shares no code
// with the graph's chain closures: one plain BFS per source, memoized.
func refCFGReach(g *acfg.Graph) func(from, to int) bool {
	rows := map[int][]bool{}
	return func(from, to int) bool {
		row, ok := rows[from]
		if !ok {
			row = make([]bool, g.Len())
			queue := []int{from}
			for head := 0; head < len(queue); head++ {
				for _, s := range g.Succs(queue[head]) {
					if !row[s] {
						row[s] = true
						queue = append(queue, s)
					}
				}
			}
			rows[from] = row
		}
		return row[to]
	}
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
// using every load and store as a source: the DFS reference's list and
// the sweep's relation (every node a target, fed through its own value)
// must both give the map-backed DFS's verdicts.
func diffFlowFunc(t *testing.T, label string, m *ir.Module, fn string) {
	t.Helper()
	g, err := acfg.Build(m, fn, acfg.Options{})
	if err != nil {
		t.Fatalf("%s/%s: acfg: %v", label, fn, err)
	}
	al := alias.Analyze(g)
	fg, err := buildFlowGraph(g, al)
	if err != nil {
		t.Fatalf("%s/%s: %v", label, fn, err)
	}
	adj := refFlowEdges(g, al, refCFGReach(g))
	dfs := newDFSReach(fg)
	var srcs []*acfg.Node
	var refs [][2]map[int]bool // per source, the reference's (reached, viaGep)
	for _, src := range g.Nodes {
		if !src.IsLoad() && !src.IsStore() {
			continue
		}
		list := dfs.from(src.ID)
		r := list.dense(g.Len())
		wantReach, wantGep := refReach(adj, src.ID)
		srcs, refs = append(srcs, src), append(refs, [2]map[int]bool{wantReach, wantGep})
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
	d := &detector{ctx: context.Background(), g: g, flow: fg, res: &Result{}}
	rel := d.feeders(srcs, g.Nodes, func(n *acfg.Node) []int { return []int{n.ID} })
	for _, dst := range g.Nodes {
		var want []feed
		for i, src := range srcs {
			if src != dst && refs[i][0][dst.ID] {
				want = append(want, feed{src: int32(src.ID), gep: refs[i][1][dst.ID]})
			}
		}
		if !slices.Equal(rel[dst.ID], want) {
			t.Fatalf("%s/%s: the sweep feeds node %d from %v, reference %v", label, fn, dst.ID, rel[dst.ID], want)
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
// indexed data.rf build yields exactly the pairwise scan's CSR arrays,
// and that every edge of the scan goes forward in the A-CFG's
// topological order (node IDs are not such an order), which the sweep
// relies on and buildFlowGraph enforces.
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
		fg, err := buildFlowGraph(g, al)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, f.Nm, err)
		}
		adj := refFlowEdges(g, al, refCFGReach(g))
		pos := make([]int, g.Len())
		for i, id := range g.Topo() {
			pos[id] = i
		}
		for src, es := range adj {
			for _, e := range es {
				if pos[e.to] <= pos[src] {
					t.Fatalf("%s/%s: flow edge %d → %d goes backward in topological order", label, f.Nm, src, e.to)
				}
			}
		}
		start, edges := refCSR(g.Len(), adj)
		if !slices.Equal(fg.start, start) {
			t.Fatalf("%s/%s: CSR start differs from the pairwise scan", label, f.Nm)
		}
		if !slices.Equal(fg.edges, edges) {
			t.Fatalf("%s/%s: CSR edges differ from the pairwise scan (%d vs %d edges)",
				label, f.Nm, len(fg.edges), len(edges))
		}
	}
}

// TestReachListMatchesReferenceRandom runs the DFS reference and the
// sweep over random DAGs with gep hops on random edges. Each DAG's
// topological order is a random permutation, so node IDs are no guide to
// it; sources are taken in a random order, and every tenth graph is large
// enough for several 64-source blocks. Corpus graphs rarely reach a node
// first without a gep hop and later through one, or feed a target through
// several defs only some of which a gep hop reaches; random graphs
// exercise both.
func TestReachListMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 3000; iter++ {
		n := 2 + rng.Intn(11)
		if iter%10 == 0 {
			n = 2 + rng.Intn(150)
		}
		f := &flowGraph{start: make([]int32, n+1), order: rng.Perm(n), pos: make([]int32, n)}
		for i, id := range f.order {
			f.pos[id] = int32(i)
		}
		adj := map[int][]refEdge{}
		for src := 0; src < n; src++ {
			for k := rng.Intn(4); k > 0 && int(f.pos[src]) < n-1; k-- {
				e := refEdge{to: f.order[int(f.pos[src])+1+rng.Intn(n-1-int(f.pos[src]))], gep: rng.Intn(3) == 0}
				adj[src] = append(adj[src], e)
				p := int32(e.to) << 1
				if e.gep {
					p |= 1
				}
				f.edges = append(f.edges, p)
			}
			f.start[src+1] = int32(len(f.edges))
		}
		dfs := newDFSReach(f)
		for src := 0; src < n; src++ {
			list := dfs.from(src)
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

		nodes := make([]*acfg.Node, n)
		for i := range nodes {
			nodes[i] = &acfg.Node{ID: i}
		}
		defs := make([][]int, n)
		for i := range defs {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				defs[i] = append(defs[i], rng.Intn(n))
			}
		}
		srcs := make([]*acfg.Node, 0, n)
		for _, i := range rng.Perm(n)[:1+rng.Intn(n)] {
			srcs = append(srcs, nodes[i])
		}
		d := &detector{ctx: context.Background(), g: &acfg.Graph{Nodes: nodes}, flow: f, res: &Result{}}
		got := d.feeders(srcs, nodes, func(t *acfg.Node) []int { return defs[t.ID] })
		want := refFeeders(newDenseFlow(f), srcs, nodes, func(t *acfg.Node) []int { return defs[t.ID] })
		for _, tn := range nodes {
			if !slices.Equal(got[tn.ID], want[tn.ID]) {
				t.Fatalf("iter %d: feeders of %d (defs %v) = %v, reference %v; graph %v",
					iter, tn.ID, defs[tn.ID], got[tn.ID], want[tn.ID], adj)
			}
		}
	}
}

// TestFlowGraphRejectsBackwardEdge gives a store a stored-value def the
// exit node, last in every topological order: the edge exit → store would
// carry nothing in the sweep, so construction must fail instead.
func TestFlowGraphRejectsBackwardEdge(t *testing.T) {
	c := litmus.All()[0]
	g, err := acfg.Build(compile(t, c.Source), c.Fn, acfg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	al := alias.Analyze(g)
	if _, err := buildFlowGraph(g, al); err != nil {
		t.Fatalf("intact graph: %v", err)
	}
	for _, n := range g.Nodes {
		if n.IsStore() {
			n.ArgDefs[0] = append(n.ArgDefs[0], g.Exit)
			_, err := buildFlowGraph(g, al)
			if err == nil || !strings.Contains(err.Error(), "backward") {
				t.Fatalf("edge %d → %d: buildFlowGraph error %v, want a backward edge", g.Exit, n.ID, err)
			}
			return
		}
	}
	t.Fatalf("%s has no store", c.Name)
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

// reachInfo lists the nodes one source's value reaches, once each, in
// discovery order: entries are packed node<<1|gep, the CSR edge packing,
// with gep set when some reaching path crosses a gep index hop. The
// source itself is always the first entry.
type reachInfo []int32

// dfsReach is the per-source traversal the sweep replaced, kept as the
// reference: a DFS over (node, crossed-gep) states, packed node<<1|gep
// like a CSR edge, so following an edge is a single OR of the gep flags.
// A state adds nothing once its node is listed with at least its gep
// flag: whatever (n, 0) reaches, (n, 1) reaches with the flag set. A node
// is listed in the current traversal when its stamp equals epoch, and at
// holds its entry's index in the list.
type dfsReach struct {
	f     *flowGraph
	stamp []uint32
	at    []int32
	epoch uint32
}

func newDFSReach(f *flowGraph) *dfsReach {
	n := len(f.start) - 1
	return &dfsReach{f: f, stamp: make([]uint32, n), at: make([]int32, n)}
}

func (r *dfsReach) from(src int) reachInfo {
	f := r.f
	r.epoch++
	var list reachInfo
	stack := []int32{int32(src) << 1}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		node, gep := st>>1, st&1
		if r.stamp[node] == r.epoch {
			i := r.at[node]
			if list[i]&1 >= gep {
				continue
			}
			list[i] |= 1
		} else {
			r.stamp[node] = r.epoch
			r.at[node] = int32(len(list))
			list = append(list, st)
		}
		for _, e := range f.edges[f.start[node]:f.start[node+1]] {
			next := e | gep
			if to := next >> 1; r.stamp[to] == r.epoch && list[r.at[to]]&1 >= next&1 {
				continue
			}
			stack = append(stack, next)
		}
	}
	return list
}

// denseReach is a reach list expanded into the two bitsets the
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

// denseFlow memoizes each source's expanded DFS reach for the references.
type denseFlow struct {
	dfs  *dfsReach
	memo map[int]denseReach
}

func newDenseFlow(fl *flowGraph) *denseFlow {
	return &denseFlow{dfs: newDFSReach(fl), memo: map[int]denseReach{}}
}

func (df *denseFlow) from(src int) denseReach {
	r, ok := df.memo[src]
	if !ok {
		r = df.dfs.from(src).dense(len(df.dfs.f.start) - 1)
		df.memo[src] = r
	}
	return r
}
