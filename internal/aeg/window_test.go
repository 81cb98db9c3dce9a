package aeg

// Differential check of the dense speculation windows against the
// map-based window computation they replace: for every branch and every
// node, WindowInfo must answer the reference's (arms, dist, ok), and
// ForEachWindowNode must visit exactly the reference's members, in
// ascending order. The litmus suite covers small branchy shapes and the
// lfence barriers; the cryptolib sweep covers the large inlined graphs.

import (
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/cryptolib"
	"lcm/internal/litmus"
	"lcm/internal/lower"
	"lcm/internal/minic"
)

// refWindowFrom is the reference BFS: the nodes reachable from start
// within the speculation bound without entering an lfence, each mapped to
// its depth from start (start itself is at depth 0).
func refWindowFrom(g *acfg.Graph, opts Options, start int) map[int]int {
	bound := min(opts.ROB, opts.Wsize)
	out := map[int]int{}
	if g.Nodes[start].IsLfence() {
		return out
	}
	out[start] = 0
	frontier := []int{start}
	for depth := 0; depth < bound && len(frontier) > 0; depth++ {
		var next []int
		for _, n := range frontier {
			for _, s := range g.Succs(n) {
				if _, seen := out[s]; seen || g.Nodes[s].IsLfence() {
					continue
				}
				out[s] = depth + 1
				next = append(next, s)
			}
		}
		frontier = next
	}
	return out
}

// refWindow is branch b's reference window: per member, its arm
// fetchability and minimum fetch distance from b.
func refWindow(g *acfg.Graph, opts Options, b int) (map[int][2]bool, map[int]int) {
	arms, dist := map[int][2]bool{}, map[int]int{}
	for arm, succ := range g.Succs(b)[:2] {
		for n, d := range refWindowFrom(g, opts, succ) {
			a := arms[n]
			a[arm] = true
			arms[n] = a
			if old, ok := dist[n]; !ok || d+1 < old {
				dist[n] = d + 1
			}
		}
	}
	return arms, dist
}

func checkWindows(t *testing.T, g *acfg.Graph, opts Options) {
	t.Helper()
	// Window geometry reads only the graph: no alias analysis is needed.
	a := Build(g, nil, opts)
	for _, b := range a.Branches() {
		arms, dist := refWindow(g, a.Opts, b)
		for n := 0; n < g.Len(); n++ {
			gotArms, gotDist, gotOK := a.WindowInfo(b, n)
			wantArms, wantOK := arms[n]
			if gotArms != wantArms || gotDist != dist[n] || gotOK != wantOK {
				t.Fatalf("%+v: WindowInfo(%d, %d) = (%v, %d, %v), reference (%v, %d, %v)",
					opts, b, n, gotArms, gotDist, gotOK, wantArms, dist[n], wantOK)
			}
		}
		prev, visited := -1, 0
		a.ForEachWindowNode(b, func(n int, got [2]bool) {
			if n <= prev {
				t.Fatalf("%+v: ForEachWindowNode(%d) visits %d after %d", opts, b, n, prev)
			}
			if want, ok := arms[n]; !ok || got != want {
				t.Fatalf("%+v: ForEachWindowNode(%d) visits %d with %v, reference (%v, %v)", opts, b, n, got, want, ok)
			}
			prev = n
			visited++
		})
		if visited != len(arms) {
			t.Fatalf("%+v: ForEachWindowNode(%d) visits %d nodes, reference %d", opts, b, visited, len(arms))
		}
	}
}

// windowOptions are the default bounds and the tightest ones, where the
// bound rather than the graph ends every window.
var windowOptions = []Options{{}, {ROB: 1, Wsize: 1}}

func graphsOf(t *testing.T, src string, fns []string) []*acfg.Graph {
	t.Helper()
	f, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := lower.Module(f)
	if err != nil {
		t.Fatal(err)
	}
	var out []*acfg.Graph
	for _, fn := range fns {
		g, err := acfg.Build(m, fn, acfg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	return out
}

func TestWindowsMatchReferenceLitmus(t *testing.T) {
	fences := 0
	for _, c := range litmus.All() {
		g := graphsOf(t, c.Source, []string{c.Fn})[0]
		for _, n := range g.Nodes {
			if n.IsLfence() {
				fences++
			}
		}
		for _, opts := range windowOptions {
			checkWindows(t, g, opts)
		}
	}
	if fences == 0 {
		t.Fatal("no litmus graph has an lfence: the barrier path went unchecked")
	}
}

func TestWindowsMatchReferenceCryptolib(t *testing.T) {
	if testing.Short() {
		t.Skip("cryptolib graphs are large")
	}
	for _, lib := range cryptolib.All() {
		for i, g := range graphsOf(t, lib.Source, lib.PublicFuncs) {
			t.Run(lib.Name+"/"+lib.PublicFuncs[i], func(t *testing.T) {
				for _, opts := range windowOptions {
					checkWindows(t, g, opts)
				}
			})
		}
	}
}
