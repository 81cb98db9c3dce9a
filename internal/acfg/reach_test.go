package acfg_test

// Differential check of the chain closures, (*acfg.Graph).Reach and
// FenceFreeReach, against a plain per-source BFS over every (source,
// destination) pair. The litmus suite holds the hand-fenced gadgets;
// repair's outputs hold the fences Clou inserts, which is where lfences
// occur in practice. The crypto and progen graphs are the long
// straight-line runs the chains compress.

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/cryptolib"
	"lcm/internal/detect"
	"lcm/internal/ir"
	"lcm/internal/litmus"
	"lcm/internal/lower"
	"lcm/internal/minic"
	"lcm/internal/progen"
	"lcm/internal/repair"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	f, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := lower.Module(f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// bfs is the reference: it sets out[n] for the nodes that a non-empty
// successor path from src reaches while entering only nodes for which
// enter holds, and clears the rest. queue is scratch; bfs returns it for
// reuse.
func bfs(g *acfg.Graph, src int, enter func(*acfg.Node) bool, out []bool, queue []int) []int {
	clear(out)
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		for _, s := range g.Succs(queue[head]) {
			if !out[s] && enter(g.Nodes[s]) {
				out[s] = true
				queue = append(queue, s)
			}
		}
	}
	return queue
}

func anyNode(*acfg.Node) bool { return true }

func notLfence(n *acfg.Node) bool { return !n.IsLfence() }

// checkReach compares both closures of g with the reference over every
// pair of nodes and returns how many lfences the graph has. Reach is
// strict, so reach(n, n) is false; FenceFreeReach is reflexive.
func checkReach(t testing.TB, label string, g *acfg.Graph) int {
	t.Helper()
	reach, ff := g.Reach(), g.FenceFreeReach()
	fences := 0
	all, free := make([]bool, g.Len()), make([]bool, g.Len())
	var queue []int
	for src, n := range g.Nodes {
		if n.IsLfence() {
			fences++
		}
		queue = bfs(g, src, anyNode, all, queue)
		queue = bfs(g, src, notLfence, free, queue)
		free[src] = true
		for dst := range g.Nodes {
			if got := reach(src, dst); got != all[dst] {
				t.Fatalf("%s: Reach()(%d, %d) = %v, BFS says %v", label, src, dst, got, all[dst])
			}
			if got := ff(src, dst); got != free[dst] {
				t.Fatalf("%s: FenceFreeReach()(%d, %d) = %v, BFS says %v", label, src, dst, got, free[dst])
			}
		}
	}
	return fences
}

// checkReachOf builds fn's graph and checks its closures (checkReach).
func checkReachOf(t *testing.T, label string, m *ir.Module, fn string) int {
	t.Helper()
	g, err := acfg.Build(m, fn, acfg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return checkReach(t, label, g)
}

func TestFenceFreeReachMatchesBFS(t *testing.T) {
	litmusFences, repairFences := 0, 0
	for _, c := range litmus.All() {
		label := c.Suite + "/" + c.Name
		litmusFences += checkReachOf(t, label, compile(t, c.Source), c.Fn)
		m := compile(t, c.Source)
		res, err := repair.Repair(m, c.Fn, detect.DefaultPHT(), 0)
		if err != nil {
			t.Fatalf("%s: repair: %v", label, err)
		}
		if res.Fences > 0 {
			repairFences += checkReachOf(t, label+" repaired", m, c.Fn)
		}
	}
	// Both sources of lfences must reach the check, so the closure built
	// over fences is exercised and not only the Reach alias.
	if litmusFences == 0 || repairFences == 0 {
		t.Fatalf("lfences checked: %d in litmus graphs, %d in repaired graphs; want both > 0", litmusFences, repairFences)
	}
}

// TestReachMatchesBFSCryptolib checks the closures of every crypto public
// function, donna's included: the long straight-line graphs.
func TestReachMatchesBFSCryptolib(t *testing.T) {
	for _, lib := range cryptolib.All() {
		m := compile(t, lib.Source)
		for _, fn := range lib.PublicFuncs {
			checkReachOf(t, lib.Name+"/"+fn, m, fn)
		}
	}
}

// TestReachMatchesBFSProgen checks the closures of every generated
// program of the pinned campaign seeds.
func TestReachMatchesBFSProgen(t *testing.T) {
	for _, seed := range []int64{22, 1} {
		progs, err := progen.GenerateN(seed, 200)
		if err != nil {
			t.Fatalf("progen seed %d: %v", seed, err)
		}
		for _, p := range progs {
			checkReachOf(t, fmt.Sprintf("progen/%d/%d", seed, p.Index), compile(t, p.Src), p.Fn)
		}
	}
}

// TestFenceFreeReachConcurrent builds both closures of one graph from
// several goroutines at once, as engine runs sharing a cached frontend
// do; under -race it checks the lazy construction is synchronized.
func TestFenceFreeReachConcurrent(t *testing.T) {
	var g *acfg.Graph
	for _, c := range litmus.All() {
		if g != nil {
			break
		}
		cg, err := acfg.Build(compile(t, c.Source), c.Fn, acfg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if slices.ContainsFunc(cg.Nodes, (*acfg.Node).IsLfence) {
			g = cg
		}
	}
	if g == nil {
		t.Fatal("no litmus graph has an lfence")
	}
	const workers = 4
	got := make([][]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ff, reach := g.FenceFreeReach(), g.Reach()
			for dst := 0; dst < g.Len(); dst++ {
				got[w] = append(got[w], ff(g.Entry, dst), reach(g.Entry, dst))
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !slices.Equal(got[w], got[0]) {
			t.Fatalf("goroutine %d saw different closures than goroutine 0", w)
		}
	}
}
