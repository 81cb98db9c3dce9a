package acfg_test

// Differential check of the fence-free closure, (*acfg.Graph).FenceFreeReach,
// against a per-source BFS that never enters an lfence. The litmus suite
// holds the hand-fenced gadgets; repair's outputs hold the fences Clou
// inserts, which is where lfences occur in practice.

import (
	"slices"
	"sync"
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/detect"
	"lcm/internal/ir"
	"lcm/internal/litmus"
	"lcm/internal/lower"
	"lcm/internal/minic"
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

// fenceFreeBFS is the reference: the nodes reachable from src without
// entering an lfence, src included.
func fenceFreeBFS(g *acfg.Graph, src int) []bool {
	out := make([]bool, g.Len())
	out[src] = true
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		for _, s := range g.Succs(queue[head]) {
			if !out[s] && !g.Nodes[s].IsLfence() {
				out[s] = true
				queue = append(queue, s)
			}
		}
	}
	return out
}

// checkFenceFree compares the closure with the reference over every pair
// of nodes and reports how many lfences the graph has.
func checkFenceFree(t *testing.T, label string, m *ir.Module, fn string) int {
	t.Helper()
	g, err := acfg.Build(m, fn, acfg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ff := g.FenceFreeReach()
	fences := 0
	for src, n := range g.Nodes {
		if n.IsLfence() {
			fences++
		}
		ref := fenceFreeBFS(g, src)
		for dst, want := range ref {
			if got := ff(src, dst); got != want {
				t.Fatalf("%s: FenceFreeReach()(%d, %d) = %v, BFS says %v", label, src, dst, got, want)
			}
		}
	}
	return fences
}

func TestFenceFreeReachMatchesBFS(t *testing.T) {
	litmusFences, repairFences := 0, 0
	for _, c := range litmus.All() {
		label := c.Suite + "/" + c.Name
		litmusFences += checkFenceFree(t, label, compile(t, c.Source), c.Fn)
		m := compile(t, c.Source)
		res, err := repair.Repair(m, c.Fn, detect.DefaultPHT(), 0)
		if err != nil {
			t.Fatalf("%s: repair: %v", label, err)
		}
		if res.Fences > 0 {
			repairFences += checkFenceFree(t, label+" repaired", m, c.Fn)
		}
	}
	// Both sources of lfences must reach the check, so the closure built
	// over fences is exercised and not only the Reach alias.
	if litmusFences == 0 || repairFences == 0 {
		t.Fatalf("lfences checked: %d in litmus graphs, %d in repaired graphs; want both > 0", litmusFences, repairFences)
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
