package presolve

// Differential checks of the reachability structures the pre-solver's
// arch witnesses are built from, each against a plain search:
//
//   - the A-CFG transitive closure the waypoints are ordered by,
//     (*acfg.Graph).Reach: from the entry and from every branch successor,
//     it must answer exactly the BFS's reachable set;
//   - the entry-rooted BFS tree that serves the entry → first-waypoint
//     segment: its path to every node must equal bfsPath(Entry, n).
//
// The litmus suite exercises small branchy shapes; the cryptolib sweep
// covers the large inlined graphs.

import (
	"slices"
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/cryptolib"
	"lcm/internal/dataflow"
	"lcm/internal/litmus"
	"lcm/internal/lower"
	"lcm/internal/minic"
)

func buildGraph(t *testing.T, src, fn string) *acfg.Graph {
	t.Helper()
	f, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := lower.Module(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	g, err := acfg.Build(m, fn, acfg.Options{})
	if err != nil {
		t.Fatalf("acfg: %v", err)
	}
	return g
}

// bfsReach is the reference: the nodes reachable from start over
// successor edges, start included.
func bfsReach(g *acfg.Graph, start int) dataflow.BitSet {
	out := dataflow.NewBitSet(g.Len())
	out.Set(start)
	frontier := []int{start}
	for len(frontier) > 0 {
		n := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, s := range g.Succs(n) {
			if !out.Has(s) {
				out.Set(s)
				frontier = append(frontier, s)
			}
		}
	}
	return out
}

// checkBypass compares the closure with the BFS reference from the entry
// and from both successors of every branch, over all nodes. The closure is
// strict: on a DAG no node reaches itself.
func checkBypass(t *testing.T, g *acfg.Graph) {
	t.Helper()
	reach := g.Reach()
	starts := []int{g.Entry}
	for b := 0; b < g.Len(); b++ {
		if succ := g.Succs(b); len(succ) >= 2 {
			starts = append(starts, succ...)
		}
	}
	for _, s := range starts {
		ref := bfsReach(g, s)
		for n := 0; n < g.Len(); n++ {
			if got, want := reach(s, n), n != s && ref.Has(n); got != want {
				t.Fatalf("Reach()(%d, %d) = %v, BFS says %v", s, n, got, want)
			}
		}
	}
}

func TestBypassMatchesCutReachLitmus(t *testing.T) {
	for _, c := range litmus.All() {
		c := c
		t.Run(c.Suite+"/"+c.Name, func(t *testing.T) {
			checkBypass(t, buildGraph(t, c.Source, c.Fn))
		})
	}
}

func TestBypassMatchesCutReachCryptolib(t *testing.T) {
	if testing.Short() {
		t.Skip("cryptolib graphs are large")
	}
	for _, lib := range cryptolib.All() {
		for _, fn := range lib.PublicFuncs {
			lib, fn := lib, fn
			t.Run(lib.Name+"/"+fn, func(t *testing.T) {
				g := buildGraph(t, lib.Source, fn)
				if g.Len() > 3000 {
					// Full sweeps over donna-sized graphs take minutes; the
					// closure construction is graph-size independent.
					t.Skip("graph too large for the exhaustive sweep")
				}
				checkBypass(t, g)
			})
		}
	}
}

// bfsPath returns the shortest path bfsTree leaves from src to dst (nil
// when unreachable), and entryPath the entry tree's path to dst.
func (a *Analysis) bfsPath(src, dst int) []int {
	if !a.bfsTree(src, dst) {
		return nil
	}
	return treePath(a.bfs.parent, src, dst)
}

func (a *Analysis) entryPath(dst int) []int {
	if parent, _ := a.entryTree(); parent[dst] < 0 {
		return nil
	}
	return treePath(a.entry, a.f.G.Entry, dst)
}

// treePath follows parent links from dst back to src and returns the path
// in src-to-dst order.
func treePath(parent []int32, src, dst int) []int {
	var path []int
	for n := dst; n != src; n = int(parent[n]) {
		path = append(path, n)
	}
	path = append(path, src)
	slices.Reverse(path)
	return path
}

// checkEntryTree compares entryPath, served from the one entry-rooted BFS
// tree, with a fresh bfsPath(Entry, n) search for every node n.
func checkEntryTree(t *testing.T, g *acfg.Graph) {
	t.Helper()
	a := NewAnalysis(NewFacts(g, nil, nil), nil) // paths read only the graph
	for n := 0; n < g.Len(); n++ {
		if got, want := a.entryPath(n), a.bfsPath(g.Entry, n); !slices.Equal(got, want) {
			t.Fatalf("entryPath(%d) = %v, bfsPath(Entry, %d) = %v", n, got, n, want)
		}
	}
}

func TestEntryTreeMatchesBFSPathLitmus(t *testing.T) {
	for _, c := range litmus.All() {
		checkEntryTree(t, buildGraph(t, c.Source, c.Fn))
	}
}

func TestEntryTreeMatchesBFSPathCryptolib(t *testing.T) {
	if testing.Short() {
		t.Skip("cryptolib graphs are large")
	}
	for _, lib := range cryptolib.All() {
		for _, fn := range lib.PublicFuncs {
			t.Run(lib.Name+"/"+fn, func(t *testing.T) {
				g := buildGraph(t, lib.Source, fn)
				checkEntryTree(t, g)
			})
		}
	}
}
