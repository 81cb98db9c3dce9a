package aeg

import (
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/alias"
	"lcm/internal/ir"
	"lcm/internal/lower"
	"lcm/internal/minic"
	"lcm/internal/sat"
	"lcm/internal/smt"
)

func buildAEG(t *testing.T, src, fn string, opts Options) *AEG {
	t.Helper()
	f, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := lower.Module(f)
	if err != nil {
		t.Fatal(err)
	}
	g, err := acfg.Build(m, fn, acfg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return Build(g, alias.Analyze(g), opts)
}

const branchy = `
int A[16];
int f(int y) {
	int r = 0;
	if (y < 16) {
		r = A[y];
	}
	return r;
}
`

func TestArchPathFeasibility(t *testing.T) {
	a := buildAEG(t, branchy, "f", Options{})
	// Some path exists.
	if a.Check() != sat.Sat {
		t.Fatal("no architectural execution")
	}
	// The exit is always reached.
	if a.Check(smt.Not(a.Arch(a.G.Exit))) != sat.Unsat {
		t.Error("execution can miss the exit")
	}
	// Both branch directions are feasible.
	bs := a.Branches()
	if len(bs) != 1 {
		t.Fatalf("branches = %d", len(bs))
	}
	b := bs[0]
	if a.Check(a.Take(b)) != sat.Sat || a.Check(smt.Not(a.Take(b))) != sat.Sat {
		t.Error("branch direction not free")
	}
}

func TestMisspeculationRequiresArchBranch(t *testing.T) {
	a := buildAEG(t, branchy, "f", Options{})
	b := a.Branches()[0]
	// misspec ⇒ arch(branch).
	if a.Check(a.Misspec(b), smt.Not(a.Arch(b))) != sat.Unsat {
		t.Error("window without executing the branch")
	}
}

func TestTransientOnlyOnWrongArm(t *testing.T) {
	a := buildAEG(t, branchy, "f", Options{})
	b := a.Branches()[0]
	// Find the A[y] load (gep-addressed) inside the if-body: it lies on
	// exactly one arm of the branch. Loads past the join can legitimately
	// be both architectural and transient (re-fetched after rollback).
	var bodyNode int = -1
	for _, n := range a.G.Nodes {
		if n.IsLoad() && a.InWindow(b, n.ID) {
			if in, ok := n.Instr.Args[0].(*ir.Instr); ok && in.Op == ir.OpGEP {
				bodyNode = n.ID
			}
		}
	}
	if bodyNode < 0 {
		t.Fatal("no load in window")
	}
	// The node can be transient...
	if a.Check(a.TransUnder(b, bodyNode)) != sat.Sat {
		t.Fatal("window membership infeasible")
	}
	// ...but then it must be on the arm the branch did not take, and it
	// cannot simultaneously be architectural.
	if a.Check(a.TransUnder(b, bodyNode), a.Arch(bodyNode)) == sat.Sat {
		// A node transient under b while also architecturally executed
		// would mean the branch both took and skipped its arm.
		t.Error("node transient and architectural at once")
	}
}

func TestWindowBound(t *testing.T) {
	// With ROB = 1, only the first instruction past the branch is in the
	// window.
	small := buildAEG(t, branchy, "f", Options{ROB: 1, Wsize: 1})
	big := buildAEG(t, branchy, "f", Options{})
	b1, b2 := small.Branches()[0], big.Branches()[0]
	count := func(a *AEG, b int) int {
		n := 0
		for _, nd := range a.G.Nodes {
			if a.InWindow(b, nd.ID) {
				n++
			}
		}
		return n
	}
	if count(small, b1) >= count(big, b2) {
		t.Errorf("window bound ineffective: %d vs %d", count(small, b1), count(big, b2))
	}
}

func TestModelReadback(t *testing.T) {
	a := buildAEG(t, branchy, "f", Options{})
	b := a.Branches()[0]
	if a.Check(a.Misspec(b)) != sat.Sat {
		t.Fatal("unsat")
	}
	archNodes, _, takeDir := a.Model()
	if len(archNodes) == 0 {
		t.Error("empty architectural path")
	}
	if _, ok := takeDir[b]; !ok {
		t.Error("branch direction missing from model")
	}
}

const twoBranches = `
int A[16];
int f(int x, int y) {
	int r = 0;
	if (x < 16) {
		r = A[x];
	}
	if (y < 16) {
		r = r + A[y];
	}
	return r;
}
`

func TestBuildEncodesNothing(t *testing.T) {
	a := buildAEG(t, twoBranches, "f", Options{})
	if g := a.EncodeStats(); g != 0 {
		t.Errorf("gates after Build = %d, want 0", g)
	}
	if n := a.S.NumVars(); n != 1 {
		t.Errorf("solver variables after Build = %d, want 1 (the constant)", n)
	}
	computed := func() []int {
		var bs []int
		for b, w := range a.wins {
			if w != nil {
				bs = append(bs, b)
			}
		}
		return bs
	}
	if bs := computed(); len(bs) != 0 {
		t.Errorf("windows computed by Build: %v", bs)
	}
	bs := a.Branches()
	if len(bs) != 2 {
		t.Fatalf("branches = %v, want 2", bs)
	}
	if bs := computed(); len(bs) != 0 {
		t.Errorf("windows computed by Branches: %v", bs)
	}
	a.InWindow(bs[1], a.G.Exit)
	if got := computed(); len(got) != 1 || got[0] != bs[1] {
		t.Errorf("windows after InWindow(%d, ·) = %v, want only [%d]", bs[1], got, bs[1])
	}
	if g, n := a.EncodeStats(), a.S.NumVars(); g != 0 || n != 1 {
		t.Errorf("window computation touched the solver: %d gates, %d variables", g, n)
	}
}
