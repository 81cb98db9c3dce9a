package presolve

// Differential check of the A-CFG transitive closure the pre-solver's
// arch witnesses order their waypoints by, (*acfg.Graph).Reach, against
// a plain BFS: from the entry and from every branch successor, the
// closure must answer exactly the BFS's reachable set. The litmus suite
// exercises small branchy shapes; the cryptolib sweep covers the large
// inlined graphs.

import (
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
