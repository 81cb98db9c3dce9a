package acfg_test

// Reference A-CFG builder: the splice-by-rescan inliner that Build replaced,
// kept as the oracle for the in-place splice. Each spliced call rewrites
// every ArgDefs list (and the callee frame's return defs) that names the
// call, and rebuilds the whole edge list to re-route the call's out-edges
// from the callee's returns. It is quadratic in call sites, and it is
// frozen: Build must produce the same nodes, contexts, def lists and
// successor/predecessor orders on every input.

import (
	"fmt"
	"slices"
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/cryptolib"
	"lcm/internal/ir"
	"lcm/internal/litmus"
	"lcm/internal/lower"
	"lcm/internal/minic"
	"lcm/internal/progen"
)

// refGraph is the reference builder's output.
type refGraph struct {
	nodes       []*acfg.Node
	entry, exit int
	succs       [][]int
	preds       [][]int
}

type refBuilder struct {
	m     *ir.Module
	opts  acfg.Options
	g     *refGraph
	edges [][2]int
}

func refBuild(m *ir.Module, fn string, opts acfg.Options) (*refGraph, error) {
	if opts.Unroll == 0 {
		opts.Unroll = 2
	}
	if opts.InlineDepth == 0 {
		opts.InlineDepth = 2
	}
	if opts.MaxNodes == 0 {
		opts.MaxNodes = 60_000
	}
	f := m.Func(fn)
	if f == nil || f.IsDecl() {
		return nil, fmt.Errorf("acfg: no definition for %q", fn)
	}
	b := &refBuilder{m: m, opts: opts, g: &refGraph{}}
	entry := b.newNode(&acfg.Node{Kind: acfg.NEntry, Ctx: fn})
	b.g.entry = entry.ID
	first, lasts, _, err := b.inline(f, map[string]int{}, nil, fn)
	if err != nil {
		return nil, err
	}
	exit := b.newNode(&acfg.Node{Kind: acfg.NExit, Ctx: fn})
	b.g.exit = exit.ID
	b.edge(entry.ID, first)
	for _, l := range lasts {
		b.edge(l, exit.ID)
	}
	n := len(b.g.nodes)
	b.g.succs = make([][]int, n)
	b.g.preds = make([][]int, n)
	seen := map[[2]int]bool{}
	for _, e := range b.edges {
		if seen[e] {
			continue
		}
		seen[e] = true
		b.g.succs[e[0]] = append(b.g.succs[e[0]], e[1])
		b.g.preds[e[1]] = append(b.g.preds[e[1]], e[0])
	}
	return b.g, nil
}

func (b *refBuilder) newNode(n *acfg.Node) *acfg.Node {
	n.ID = len(b.g.nodes)
	b.g.nodes = append(b.g.nodes, n)
	return n
}

func (b *refBuilder) edge(from, to int) { b.edges = append(b.edges, [2]int{from, to}) }

// refInstance and refUnroll restate unrollBlocks' loop peeling, so the
// reference shares no code with the builder.
type refInstance struct {
	block *ir.Block
	succs []*refInstance
}

func refUnroll(f *ir.Func, unroll int) []*refInstance {
	type key struct {
		b     *ir.Block
		count int
	}
	instances := map[key]*refInstance{}
	var all []*refInstance
	counts := map[*ir.Block]int{}
	var walk func(blk *ir.Block) *refInstance
	walk = func(blk *ir.Block) *refInstance {
		c := counts[blk]
		if c >= unroll {
			return nil
		}
		k := key{blk, c}
		if inst, ok := instances[k]; ok {
			return inst
		}
		inst := &refInstance{block: blk}
		instances[k] = inst
		all = append(all, inst)
		counts[blk]++
		for _, s := range blk.Succs() {
			if si := walk(s); si != nil {
				inst.succs = append(inst.succs, si)
			}
		}
		counts[blk]--
		return inst
	}
	walk(f.Entry())
	return all
}

// substitute returns ds with every occurrence of call replaced by rets,
// order kept, and whether there was one.
func substitute(ds []int, call int, rets []int) ([]int, bool) {
	var out []int
	changed := false
	for _, d := range ds {
		if d == call {
			out = append(out, rets...)
			changed = true
		} else {
			out = append(out, d)
		}
	}
	return out, changed
}

func (b *refBuilder) inline(f *ir.Func, chain map[string]int, argDefs [][]int, ctx string) (int, []int, []int, error) {
	if len(b.g.nodes) > b.opts.MaxNodes {
		return 0, nil, nil, fmt.Errorf("acfg: node budget exceeded (%d)", b.opts.MaxNodes)
	}
	chain[f.Nm]++
	defer func() { chain[f.Nm]-- }()

	insts := refUnroll(f, b.opts.Unroll)
	if len(insts) == 0 {
		return 0, nil, nil, fmt.Errorf("acfg: empty function %q", f.Nm)
	}
	defs := map[*ir.Instr][]int{}
	firstNode := map[*refInstance]int{}
	lastNode := map[*refInstance]int{}
	var retNodes, retDefs []int
	type splice struct {
		node   *acfg.Node
		callee *ir.Func
	}
	var splices []splice
	resolveArg := func(v ir.Value) []int {
		switch v := v.(type) {
		case *ir.Instr:
			return append([]int(nil), defs[v]...)
		case *ir.Param:
			if argDefs != nil && v.Idx < len(argDefs) {
				return append([]int(nil), argDefs[v.Idx]...)
			}
		}
		return nil
	}
	for _, inst := range insts {
		prev := -1
		for _, in := range inst.block.Instrs {
			if in.Op == ir.OpBr {
				continue
			}
			kind := acfg.NInstr
			var callee *ir.Func
			if in.Op == ir.OpCall {
				callee = b.m.Func(in.Callee)
				if callee == nil || callee.IsDecl() || chain[in.Callee] >= b.opts.InlineDepth {
					callee = nil
					kind = acfg.NHavoc
				}
			}
			n := b.newNode(&acfg.Node{Kind: kind, Instr: in, Ctx: ctx})
			for _, a := range in.Args {
				n.ArgDefs = append(n.ArgDefs, resolveArg(a))
			}
			defs[in] = append(defs[in], n.ID)
			if prev >= 0 {
				b.edge(prev, n.ID)
			} else {
				firstNode[inst] = n.ID
			}
			prev = n.ID
			if in.Op == ir.OpCall && kind == acfg.NInstr {
				splices = append(splices, splice{node: n, callee: callee})
			}
			if in.Op == ir.OpRet {
				retNodes = append(retNodes, n.ID)
				if len(in.Args) == 1 {
					retDefs = append(retDefs, resolveArg(in.Args[0])...)
				}
			}
		}
		if prev == -1 {
			n := b.newNode(&acfg.Node{Kind: acfg.NInstr, Instr: &ir.Instr{Op: ir.OpFence, Sub: "nop"}, Ctx: ctx})
			firstNode[inst] = n.ID
			prev = n.ID
		}
		lastNode[inst] = prev
	}
	for _, inst := range insts {
		for _, s := range inst.succs {
			b.edge(lastNode[inst], firstNode[s])
		}
	}
	for _, sp := range splices {
		subCtx := ctx + "/" + sp.callee.Nm + fmt.Sprintf("#%d", chain[sp.callee.Nm]+1)
		subFirst, subLasts, subRets, err := b.inline(sp.callee, chain, sp.node.ArgDefs, subCtx)
		if err != nil {
			return 0, nil, nil, err
		}
		callID := sp.node.ID
		for _, n := range b.g.nodes {
			for i, ds := range n.ArgDefs {
				if out, changed := substitute(ds, callID, subRets); changed {
					n.ArgDefs[i] = out
				}
			}
		}
		// The frame's own return defs may name the call (`return g(x)`).
		if out, changed := substitute(retDefs, callID, subRets); changed {
			retDefs = out
		}
		var newEdges [][2]int
		for _, e := range b.edges {
			if e[0] == callID {
				for _, l := range subLasts {
					newEdges = append(newEdges, [2]int{l, e[1]})
				}
				continue
			}
			newEdges = append(newEdges, e)
		}
		b.edges = newEdges
		b.edge(callID, subFirst)
		sp.node.Kind = acfg.NInstr
		sp.node.Instr = &ir.Instr{Op: ir.OpFence, Sub: "inlined:" + sp.callee.Nm}
		sp.node.ArgDefs = nil
	}
	return firstNode[insts[0]], retNodes, retDefs, nil
}

// sameInstr compares two node instructions: the same IR instruction, or
// two synthetic markers (no parent block) with the same opcode and kind.
func sameInstr(a, b *ir.Instr) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Blk == nil && b.Blk == nil {
		return a.Op == b.Op && a.Sub == b.Sub
	}
	return a == b
}

// diffGraph returns the first difference between g and the reference, or "".
func diffGraph(g *acfg.Graph, ref *refGraph) string {
	if g.Len() != len(ref.nodes) {
		return fmt.Sprintf("%d nodes, reference %d", g.Len(), len(ref.nodes))
	}
	if g.Entry != ref.entry || g.Exit != ref.exit {
		return fmt.Sprintf("entry/exit %d/%d, reference %d/%d", g.Entry, g.Exit, ref.entry, ref.exit)
	}
	for i, n := range g.Nodes {
		r := ref.nodes[i]
		switch {
		case n.ID != r.ID || n.Kind != r.Kind || n.Ctx != r.Ctx || !sameInstr(n.Instr, r.Instr):
			return fmt.Sprintf("node %d is %v, reference %v", i, n, r)
		case len(n.ArgDefs) != len(r.ArgDefs):
			return fmt.Sprintf("node %v has %d operands, reference %d", n, len(n.ArgDefs), len(r.ArgDefs))
		case !slices.Equal(g.Succs(i), ref.succs[i]):
			return fmt.Sprintf("node %v succs %v, reference %v", n, g.Succs(i), ref.succs[i])
		case !slices.Equal(g.Preds(i), ref.preds[i]):
			return fmt.Sprintf("node %v preds %v, reference %v", n, g.Preds(i), ref.preds[i])
		}
		for k := range n.ArgDefs {
			if !slices.Equal(n.ArgDefs[k], r.ArgDefs[k]) {
				return fmt.Sprintf("node %v operand %d defs %v, reference %v", n, k, n.ArgDefs[k], r.ArgDefs[k])
			}
		}
	}
	return ""
}

// checkModule builds every defined function of m with Build and with the
// reference, requires the two to agree, and runs Verify on the result.
// It returns the number of graphs compared.
func checkModule(t testing.TB, label string, m *ir.Module) int {
	t.Helper()
	built := 0
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		g, err := acfg.Build(m, f.Nm, acfg.Options{})
		ref, refErr := refBuild(m, f.Nm, acfg.Options{})
		if err != nil || refErr != nil {
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("%s/%s: Build error %v, reference %v", label, f.Nm, err, refErr)
			}
			continue
		}
		if d := diffGraph(g, ref); d != "" {
			t.Fatalf("%s/%s: %s", label, f.Nm, d)
		}
		if err := g.Verify(); err != nil {
			t.Fatalf("%s/%s: Verify: %v", label, f.Nm, err)
		}
		built++
	}
	return built
}

func lowerSrc(t testing.TB, label, src string) *ir.Module {
	t.Helper()
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", label, err)
	}
	m, err := lower.Module(file)
	if err != nil {
		t.Fatalf("%s: lower: %v", label, err)
	}
	return m
}

func TestBuildMatchesReferenceLitmus(t *testing.T) {
	for _, c := range litmus.All() {
		checkModule(t, "litmus/"+c.Name, lowerSrc(t, c.Name, c.Source))
	}
}

func TestBuildMatchesReferenceCryptolib(t *testing.T) {
	for _, lib := range cryptolib.All() {
		checkModule(t, "cryptolib/"+lib.Name, lowerSrc(t, lib.Name, lib.Source))
	}
}

func TestBuildMatchesReferenceProgen(t *testing.T) {
	const n = 200
	for _, seed := range []int64{22, 1} {
		progs, err := progen.GenerateN(seed, n)
		if err != nil {
			t.Fatalf("progen seed %d: %v", seed, err)
		}
		for _, p := range progs {
			checkModule(t, fmt.Sprintf("progen/%d/%d", seed, p.Index), lowerSrc(t, p.Fn, p.Src))
		}
	}
}

// FuzzACFGBuild differentially fuzzes the builder: every function of any
// input that lowers must build to the reference graph and pass Verify,
// and its closures must match the per-source BFS (checkReach).
// Run with `make fuzz` or `go test -fuzz=FuzzACFGBuild ./internal/acfg`.
func FuzzACFGBuild(f *testing.F) {
	for _, seed := range []string{
		"int f(void) { return 0; }",
		"uint8_t t[256];\nint v1(long i, long n) { if (i < n) { return t[i] * 2; } return 0; }",
		"struct P { int x; int y; };\nint dot(struct P *a, struct P *b) { return a->x * b->x + a->y * b->y; }",
		"int sum(int *a, int n) { int s = 0; for (int i = 0; i < n; i++) { s += a[i]; } return s; }",
		"int g;\nvoid w(int x) { g = x ? sizeof(long) : -x; }",
		"static long mix(long a, long b) { return (a << 7) ^ (b >> 3) ^ (a & b); }",
		"char buf[8];\nvoid cpy(char *src) { int i = 0; do { buf[i] = src[i]; i++; } while (src[i]); }",
		"int g(int x){return x+1;} int f(int x){return g(x);} int A[16]; int top(int y){int v=f(y); return A[v];}",
		"int h(int x){ if (x) return 1; return x; } int k(int y){ return h(y) + h(y+1); }",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := minic.Parse(src)
		if err != nil {
			return
		}
		m, err := lower.Module(file)
		if err != nil {
			return
		}
		checkModule(t, "fuzz", m)
		for _, fn := range m.Funcs {
			if g, err := acfg.Build(m, fn.Nm, acfg.Options{}); err == nil {
				checkReach(t, "fuzz/"+fn.Nm, g)
			}
		}
	})
}
