package acfg

import (
	"math/bits"
	"strings"
	"testing"

	"lcm/internal/ir"
	"lcm/internal/lower"
	"lcm/internal/minic"
)

func build(t *testing.T, src, fn string, opts Options) *Graph {
	t.Helper()
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := lower.Module(file)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	g, err := Build(m, fn, opts)
	if err != nil {
		t.Fatalf("acfg: %v", err)
	}
	return g
}

func countKind(g *Graph, pred func(*Node) bool) int {
	n := 0
	for _, nd := range g.Nodes {
		if pred(nd) {
			n++
		}
	}
	return n
}

func TestIsDAGAndConnected(t *testing.T) {
	g := build(t, `
		int f(int n) {
			int s = 0;
			for (int i = 0; i < n; i++) s += i;
			return s;
		}
	`, "f", Options{})
	if order := g.Topo(); len(order) != len(g.Nodes) {
		t.Fatalf("not a DAG: topo covers %d of %d", len(order), len(g.Nodes))
	}
	if !g.Reach()(g.Entry, g.Exit) {
		t.Fatal("exit unreachable from entry")
	}
}

func TestLoopUnrolledTwice(t *testing.T) {
	src := `
		int A[8];
		int f(int n) {
			int s = 0;
			for (int i = 0; i < n; i++) s += A[i];
			return s;
		}
	`
	g1 := build(t, src, "f", Options{Unroll: 1})
	g2 := build(t, src, "f", Options{Unroll: 2})
	g3 := build(t, src, "f", Options{Unroll: 3})
	// Each extra unrolling adds a copy of the loop body.
	if !(g1.Len() < g2.Len() && g2.Len() < g3.Len()) {
		t.Errorf("unroll growth broken: %d, %d, %d", g1.Len(), g2.Len(), g3.Len())
	}
	// The loop body load of A appears exactly twice at Unroll=2.
	loads := 0
	for _, n := range g2.Nodes {
		if n.IsLoad() && strings.Contains(n.Instr.String(), "gep") == false {
			_ = n
		}
	}
	// Count gep nodes instead (one per body instance).
	geps := countKind(g2, func(n *Node) bool {
		return n.Kind == NInstr && n.Instr.Op == ir.OpGEP
	})
	if geps != 2 {
		t.Errorf("gep instances = %d, want 2 (two unrollings)", geps)
	}
	_ = loads
}

func TestInlining(t *testing.T) {
	src := `
		int g;
		int leaf(int x) { return x + g; }
		int caller(int x) { return leaf(x) + leaf(x + 1); }
	`
	g := build(t, src, "caller", Options{})
	// The load of global g appears once per inlined call.
	loadsOfG := 0
	for _, n := range g.Nodes {
		if n.IsLoad() {
			if gl, ok := n.Instr.Args[0].(*ir.Global); ok && gl.Nm == "g" {
				loadsOfG++
			}
		}
	}
	if loadsOfG != 2 {
		t.Errorf("inlined loads of g = %d, want 2", loadsOfG)
	}
	// Inline markers recorded.
	markers := countKind(g, func(n *Node) bool {
		return n.Kind == NInstr && n.Instr.Op == ir.OpFence && strings.HasPrefix(n.Instr.Sub, "inlined:")
	})
	if markers != 2 {
		t.Errorf("inline markers = %d", markers)
	}
}

func TestRecursionInlinedTwice(t *testing.T) {
	g := build(t, `
		int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
	`, "fact", Options{})
	// Recursive calls inline until depth 2, then become havoc nodes.
	havocs := countKind(g, func(n *Node) bool { return n.Kind == NHavoc })
	if havocs == 0 {
		t.Error("deep recursion should degrade to havoc")
	}
	inlined := countKind(g, func(n *Node) bool {
		return n.Kind == NInstr && n.Instr != nil && strings.HasPrefix(n.Instr.Sub, "inlined:fact")
	})
	if inlined != 1 {
		t.Errorf("fact inlined %d times, want 1 (depth 2 total)", inlined)
	}
	if order := g.Topo(); len(order) != len(g.Nodes) {
		t.Fatal("not a DAG after recursive inlining")
	}
}

func TestUndefinedCallBecomesHavoc(t *testing.T) {
	g := build(t, `
		int memcmp(const void *a, const void *b, size_t n);
		uint8_t buf[16];
		int f(uint8_t *p) { return memcmp(p, buf, 16); }
	`, "f", Options{})
	havocs := 0
	for _, n := range g.Nodes {
		if n.Kind == NHavoc {
			havocs++
			if n.Instr.Callee != "memcmp" {
				t.Errorf("havoc callee = %q", n.Instr.Callee)
			}
		}
	}
	if havocs != 1 {
		t.Errorf("havocs = %d", havocs)
	}
}

func TestArgDefsThroughInlining(t *testing.T) {
	src := `
		uint8_t A[16];
		uint8_t deref(uint8_t *p, int i) { return p[i]; }
		uint8_t f(int i) { return deref(A, i); }
	`
	g := build(t, src, "f", Options{})
	// The inlined load p[i] must trace its index back through the call.
	foundGEP := false
	for _, n := range g.Nodes {
		if n.Kind == NInstr && n.Instr.Op == ir.OpGEP && strings.Contains(n.Ctx, "deref") {
			foundGEP = true
			if len(n.ArgDefs) != 2 {
				t.Fatalf("gep ArgDefs = %d", len(n.ArgDefs))
			}
			if len(n.ArgDefs[1]) == 0 {
				t.Error("inlined gep index has no defs (argument flow broken)")
			}
		}
	}
	if !foundGEP {
		t.Fatal("inlined gep not found")
	}
}

func TestBranchNodeHasTwoSuccessors(t *testing.T) {
	g := build(t, `
		int f(int x) { if (x) return 1; return 2; }
	`, "f", Options{})
	found := false
	for _, n := range g.Nodes {
		if n.IsBranch() {
			found = true
			if len(g.Succs(n.ID)) != 2 {
				t.Errorf("branch succs = %d", len(g.Succs(n.ID)))
			}
		}
	}
	if !found {
		t.Fatal("no branch node")
	}
}

func TestNodeBudget(t *testing.T) {
	src := `
		int f0(int x) { return x; }
		int f1(int x) { return f0(x) + f0(x) + f0(x) + f0(x); }
		int f2(int x) { return f1(x) + f1(x) + f1(x) + f1(x); }
		int f3(int x) { return f2(x) + f2(x) + f2(x) + f2(x); }
		int f4(int x) { return f3(x) + f3(x) + f3(x) + f3(x); }
		int f5(int x) { return f4(x) + f4(x) + f4(x) + f4(x); }
		int f6(int x) { return f5(x) + f5(x) + f5(x) + f5(x); }
	`
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := lower.Module(file)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(m, "f6", Options{MaxNodes: 500}); err == nil {
		t.Error("node budget not enforced")
	}
}

func TestReachableDepthBound(t *testing.T) {
	g := build(t, `int f(int a, int b) { return a + b + a * b; }`, "f", Options{})
	count := func(row []uint64) (n int) {
		for _, w := range row {
			n += bits.OnesCount64(w)
		}
		return n
	}
	r1, reach := g.BoundedRow(g.Entry, 2), g.Reach()
	nAll := 1 // the entry itself
	for n := range g.Nodes {
		if reach(g.Entry, n) {
			nAll++
		} else if hasBit(r1, n) && n != g.Entry {
			t.Errorf("bounded row holds %d, which the entry does not reach", n)
		}
	}
	if n1 := count(r1); n1 != 3 || n1 >= nAll {
		t.Errorf("depth bound ineffective: %d vs %d, want 3 within 2 hops", n1, nAll)
	}
}

func TestWhileLoopDAG(t *testing.T) {
	g := build(t, `
		int f(int n) {
			while (n > 0) { n--; }
			return n;
		}
	`, "f", Options{})
	if order := g.Topo(); len(order) != len(g.Nodes) {
		t.Fatal("while loop not acyclic after summarization")
	}
	branches := countKind(g, func(n *Node) bool { return n.IsBranch() })
	if branches != 2 { // two unrolled loop-condition checks
		t.Errorf("branch instances = %d, want 2", branches)
	}
}

func TestNestedLoops(t *testing.T) {
	g := build(t, `
		int f(int n) {
			int s = 0;
			for (int i = 0; i < n; i++)
				for (int j = 0; j < n; j++)
					s += i * j;
			return s;
		}
	`, "f", Options{})
	if order := g.Topo(); len(order) != len(g.Nodes) {
		t.Fatal("nested loops not acyclic")
	}
}

// TestReturnOfInlinedCall pins value flow through `return g(x)` in an
// inlined callee: the caller's use of f(y) must name g's add, not the
// marker g's splice leaves in f, which defines no value.
func TestReturnOfInlinedCall(t *testing.T) {
	g := build(t, `
		int g(int x) { return x + 1; }
		int f(int x) { return g(x); }
		int A[16];
		int top(int y) { int v = f(y); return A[v]; }
	`, "top", Options{})
	for _, n := range g.Nodes {
		for _, ds := range n.ArgDefs {
			for _, d := range ds {
				if g.Nodes[d].IsFence() {
					t.Errorf("%v names marker %v as an operand def", n, g.Nodes[d])
				}
			}
		}
	}
	var stored []int
	for _, n := range g.Nodes {
		if n.IsStore() && n.Ctx == "top" && n.Instr.Args[1].ValueName() == "%v.addr" {
			stored = n.ArgDefs[0]
		}
	}
	if len(stored) != 1 {
		t.Fatalf("store of v has value defs %v, want one", stored)
	}
	if def := g.Nodes[stored[0]]; def.Instr.Op != ir.OpBin || def.Ctx != "top/f#1/g#1" {
		t.Errorf("store of v takes its value from %v, want g's add", def)
	}
}

// TestVerifyRejectsBrokenShapes breaks one invariant at a time on a built
// graph and requires Verify to name it.
func TestVerifyRejectsBrokenShapes(t *testing.T) {
	const src = `
		int g;
		int leaf(int x) { while (x > 0) { x--; } return x + g; }
		int f(int x) { if (x) return leaf(x); return 2; }
	`
	var branch, plain int
	breakers := map[string]func(g *Graph){
		"position": func(g *Graph) { g.Nodes[plain].ID++ },
		"cycle": func(g *Graph) {
			g.succs[g.Exit] = append(g.succs[g.Exit], g.Entry)
			g.preds[g.Entry] = append(g.preds[g.Entry], g.Exit)
		},
		"unreachable": func(g *Graph) {
			g.succs[g.Entry] = nil
		},
		"two successors": func(g *Graph) {
			g.succs[plain] = append(g.succs[plain], g.Exit)
		},
		"three successors": func(g *Graph) {
			g.succs[branch] = append(g.succs[branch], g.Exit)
		},
		"marker with a block": func(g *Graph) {
			for _, n := range g.Nodes {
				if isMarker(n) {
					n.Instr = &ir.Instr{Op: n.Instr.Op, Sub: n.Instr.Sub, Blk: g.Nodes[plain].Instr.Blk}
					return
				}
			}
		},
		"instruction without a block": func(g *Graph) {
			detached := *g.Nodes[plain].Instr
			detached.Blk = nil
			g.Nodes[plain].Instr = &detached
		},
		"entry with an instruction": func(g *Graph) {
			g.Nodes[g.Entry].Instr = g.Nodes[plain].Instr
		},
	}
	for name, breakIt := range breakers {
		g := build(t, src, "f", Options{})
		if err := g.Verify(); err != nil {
			t.Fatalf("intact graph: %v", err)
		}
		branch, plain = -1, -1
		for _, n := range g.Nodes {
			if n.IsBranch() && branch < 0 {
				branch = n.ID
			}
			if n.Kind == NInstr && n.Instr.Op == ir.OpBin && plain < 0 {
				plain = n.ID
			}
		}
		breakIt(g)
		if err := g.Verify(); err == nil {
			t.Errorf("%s: Verify accepted the broken graph", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}
