package dataflow_test

import (
	"slices"
	"testing"

	"lcm/internal/dataflow"
)

// frontier computes the dominance frontier of every node (the classic SSA
// phi-placement relation): DF(n) contains each join point j such that n
// dominates a predecessor of j but not j itself.
func frontier(g dataflow.Graph, d *dataflow.DomTree) [][]int {
	df := make([][]int, g.Len())
	for b := 0; b < g.Len(); b++ {
		preds := g.Preds(b)
		if !d.Reachable(b) || len(preds) < 2 {
			continue
		}
		for _, p := range preds {
			if !d.Reachable(p) {
				continue
			}
			for r := p; r != -1 && r != d.Idom(b); r = d.Idom(r) {
				if !slices.Contains(df[r], b) {
					df[r] = append(df[r], b)
				}
			}
		}
	}
	return df
}

func TestDominatorsDiamond(t *testing.T) {
	// 0 → {1,2} → 3.
	g := mk([][]int{{1, 2}, {3}, {3}, nil})
	d := dataflow.Dominators(g, 0)
	if d.Root() != 0 {
		t.Fatalf("root = %d, want 0", d.Root())
	}
	for n, want := range map[int]int{0: -1, 1: 0, 2: 0, 3: 0} {
		if got := d.Idom(n); got != want {
			t.Errorf("idom(%d) = %d, want %d", n, got, want)
		}
	}
	for _, c := range []struct {
		a, b   int
		dom    bool
		strict bool
	}{
		{0, 0, true, false},
		{0, 3, true, true},
		{1, 3, false, false}, // path 0→2→3 avoids 1
		{2, 3, false, false},
		{3, 1, false, false},
	} {
		if got := d.Dominates(c.a, c.b); got != c.dom {
			t.Errorf("Dominates(%d,%d) = %v, want %v", c.a, c.b, got, c.dom)
		}
		if got := d.StrictlyDominates(c.a, c.b); got != c.strict {
			t.Errorf("StrictlyDominates(%d,%d) = %v, want %v", c.a, c.b, got, c.strict)
		}
	}
	kids := d.Children(0)
	if len(kids) != 3 {
		t.Errorf("children(0) = %v, want all of 1,2,3", kids)
	}

	df := frontier(g, d)
	if len(df[1]) != 1 || df[1][0] != 3 {
		t.Errorf("DF(1) = %v, want [3]", df[1])
	}
	if len(df[2]) != 1 || df[2][0] != 3 {
		t.Errorf("DF(2) = %v, want [3]", df[2])
	}
	if len(df[0]) != 0 || len(df[3]) != 0 {
		t.Errorf("DF(0)=%v DF(3)=%v, want both empty", df[0], df[3])
	}
}

func TestDominatorsLoopAndUnreachable(t *testing.T) {
	// 0 → 1, 1 → {2,3}, 2 → 1 (back edge); 4 → 1 is unreachable from 0.
	g := mk([][]int{{1}, {2, 3}, {1}, nil, {1}})
	d := dataflow.Dominators(g, 0)
	if d.Idom(2) != 1 || d.Idom(3) != 1 {
		t.Fatalf("idom(2)=%d idom(3)=%d, want 1,1", d.Idom(2), d.Idom(3))
	}
	if !d.Dominates(1, 2) || d.Dominates(2, 3) {
		t.Fatalf("loop dominance wrong: 1 must dominate 2; 2 must not dominate 3")
	}
	if d.Reachable(4) {
		t.Fatalf("node 4 must be unreachable")
	}
	if d.Idom(4) != -1 || d.Dominates(0, 4) || d.Dominates(4, 1) {
		t.Fatalf("unreachable node must dominate nothing and be dominated by nothing")
	}

	be := dataflow.BackEdges(g, d)
	if len(be) != 1 || be[0] != [2]int{2, 1} {
		t.Fatalf("back edges = %v, want [[2 1]]", be)
	}
	heads := dataflow.LoopHeads(g, d)
	if len(heads) != 1 || !heads[1] {
		t.Fatalf("loop heads = %v, want {1}", heads)
	}
	// The frontier of a loop body node includes the head it re-enters.
	df := frontier(g, d)
	found := false
	for _, j := range df[2] {
		if j == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("DF(2) = %v, want to contain loop head 1", df[2])
	}
}

func TestDominatorsOnLoweredLoop(t *testing.T) {
	m := compile(t, `
uint32_t acc;
void tally(uint32_t n) {
	uint32_t i = 0;
	while (i < n) {
		acc += i;
		i += 1;
	}
}
`)
	f := fn(t, m, "tally")
	g := dataflow.NewFuncGraph(f)
	d := dataflow.Dominators(g, 0)
	for n := 0; n < g.Len(); n++ {
		if !d.Reachable(n) {
			t.Errorf("block %d (%s) unreachable after lowering", n, f.Blocks[n].Nm)
		}
		if !d.Dominates(0, n) {
			t.Errorf("entry must dominate block %d (%s)", n, f.Blocks[n].Nm)
		}
	}
	heads := dataflow.LoopHeads(g, d)
	if len(heads) != 1 {
		t.Fatalf("lowered while loop must have exactly one loop head, got %v", heads)
	}
}
