// Package acfg builds the Abstract CFG of §5.1: a loop- and call-free DAG
// over a function's instructions. Loops are summarized with two unrollings
// (enough to model all com/comx interactions between loop iterations given
// may-alias summaries, §5.1); calls to defined functions are inlined with
// recursion depth 2; calls to undefined functions remain as havoc nodes,
// which downstream analyses treat as a load or store to any pointer
// operand.
package acfg

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"lcm/internal/ir"
)

// NodeKind classifies A-CFG nodes.
type NodeKind int

// Node kinds.
const (
	NEntry NodeKind = iota
	NExit
	NInstr
	NHavoc // call to an undefined function: may load/store its pointer args
)

// Node is one abstract instruction instance (an original instruction in a
// particular unroll/inline context).
type Node struct {
	ID    int
	Kind  NodeKind
	Instr *ir.Instr
	// Ctx is the inline/unroll context, e.g. "main/f#1".
	Ctx string
	// ArgDefs lists, for each operand of Instr, the A-CFG nodes that may
	// define it (empty for constants, globals, and attacker-visible
	// top-level parameters).
	ArgDefs [][]int
	// RetDefs, for inlined call result uses, is resolved into ArgDefs of
	// the users; HavocArgs preserves pointer operands of havoc calls.
}

// IsLoad reports whether the node is a memory read.
func (n *Node) IsLoad() bool { return n.Kind == NInstr && n.Instr.Op == ir.OpLoad }

// IsStore reports whether the node is a memory write.
func (n *Node) IsStore() bool { return n.Kind == NInstr && n.Instr.Op == ir.OpStore }

// IsBranch reports whether the node is a conditional branch.
func (n *Node) IsBranch() bool { return n.Kind == NInstr && n.Instr.Op == ir.OpCondBr }

// IsFence reports whether the node is a speculation fence.
func (n *Node) IsFence() bool { return n.Kind == NInstr && n.Instr.Op == ir.OpFence }

// IsLfence reports whether the node is an lfence: a speculation barrier,
// which stops both transient fetch and the store buffer's forwarding.
func (n *Node) IsLfence() bool { return n.IsFence() && n.Instr.Sub == "lfence" }

func (n *Node) String() string {
	switch n.Kind {
	case NEntry:
		return fmt.Sprintf("%d: entry", n.ID)
	case NExit:
		return fmt.Sprintf("%d: exit", n.ID)
	case NHavoc:
		return fmt.Sprintf("%d: havoc call @%s [%s]", n.ID, n.Instr.Callee, n.Ctx)
	}
	return fmt.Sprintf("%d: %s [%s]", n.ID, n.Instr, n.Ctx)
}

// Graph is the A-CFG: a DAG with one entry and one exit.
type Graph struct {
	Fn    string
	Nodes []*Node
	Entry int
	Exit  int
	succs [][]int
	preds [][]int

	topoOnce  sync.Once
	topo      []int // topological order, built by Topo
	reachOnce sync.Once
	chainOf   []int32  // node → straight-line chain, built by Reach
	chainAt   []int32  // node → position in its chain, built by Reach
	chains    int      // number of chains, built by Reach
	chainRows []uint64 // chain closure rows, built by Reach
	reach     func(from, to int) bool
	ffOnce    sync.Once
	fenceFree func(from, to int) bool
}

// Succs returns the successor node IDs of n.
func (g *Graph) Succs(n int) []int { return g.succs[n] }

// Preds returns the predecessor node IDs of n.
func (g *Graph) Preds(n int) []int { return g.preds[n] }

// Len returns the node count — the S-AEG size metric of Fig. 8.
func (g *Graph) Len() int { return len(g.Nodes) }

// Options configures A-CFG construction.
type Options struct {
	// Unroll is the number of loop body instances (the paper uses 2).
	Unroll int
	// InlineDepth bounds how many times one function may appear in an
	// inline chain (the paper inlines recursion twice).
	InlineDepth int
	// MaxNodes aborts construction when the graph explodes.
	MaxNodes int
}

func (o *Options) defaults() {
	if o.Unroll == 0 {
		o.Unroll = 2
	}
	if o.InlineDepth == 0 {
		o.InlineDepth = 2
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 60_000
	}
}

// Build constructs the A-CFG for the named function.
func Build(m *ir.Module, fn string, opts Options) (*Graph, error) {
	opts.defaults()
	f := m.Func(fn)
	if f == nil || f.IsDecl() {
		return nil, fmt.Errorf("acfg: no definition for %q", fn)
	}
	b := &builder{m: m, opts: opts, g: &Graph{Fn: fn}, rets: map[int][]int{}, fanned: map[int][]int{}}
	entry := b.newNode(&Node{Kind: NEntry, Ctx: fn})
	b.g.Entry = entry.ID
	chain := map[string]int{}
	first, lasts, _, err := b.inline(f, chain, nil, fn)
	if err != nil {
		return nil, err
	}
	exit := b.newNode(&Node{Kind: NExit, Ctx: fn})
	b.g.Exit = exit.ID
	b.edge(entry.ID, first)
	for _, l := range lasts {
		b.edge(l, exit.ID)
	}
	b.finish()
	return b.g, nil
}

type builder struct {
	m     *ir.Module
	opts  Options
	g     *Graph
	edges [][2]int
	// rets maps each spliced call node to its callee's return defs, which
	// replace the call wherever an ArgDefs list names it.
	rets map[int][]int
	// fanned maps the index of an edge that left a spliced call with other
	// than one return to the callee's ret nodes, which replace the edge's
	// source in place when finish materializes the edge list.
	fanned map[int][]int
}

func (b *builder) newNode(n *Node) *Node {
	n.ID = len(b.g.Nodes)
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

func (b *builder) edge(from, to int) { b.edges = append(b.edges, [2]int{from, to}) }

// resolve returns defs with every spliced call replaced, in order, by the
// callee's return defs. It returns defs itself when nothing is spliced.
func (b *builder) resolve(defs []int) []int {
	for i, d := range defs {
		if _, ok := b.rets[d]; !ok {
			continue
		}
		out := append([]int(nil), defs[:i]...)
		for _, d := range defs[i:] {
			if r, ok := b.rets[d]; ok {
				out = append(out, r...)
			} else {
				out = append(out, d)
			}
		}
		return out
	}
	return defs
}

// finish resolves spliced calls out of every def list and materializes
// the edge list into deduplicated successor and predecessor lists, each in
// first-occurrence order.
func (b *builder) finish() {
	for _, n := range b.g.Nodes {
		for i, ds := range n.ArgDefs {
			n.ArgDefs[i] = b.resolve(ds)
		}
	}
	n := len(b.g.Nodes)
	b.g.succs = make([][]int, n)
	b.g.preds = make([][]int, n)
	add := func(from, to int) {
		if slices.Contains(b.g.succs[from], to) {
			return
		}
		b.g.succs[from] = append(b.g.succs[from], to)
		b.g.preds[to] = append(b.g.preds[to], from)
	}
	for i, e := range b.edges {
		if froms, ok := b.fanned[i]; ok {
			for _, from := range froms {
				add(from, e[1])
			}
			continue
		}
		add(e[0], e[1])
	}
}

// blockInstance is one unrolled copy of an ir.Block.
type blockInstance struct {
	id    int // instance id
	block *ir.Block
	succs []*blockInstance
}

// unrollBlocks converts a function's CFG into a DAG of block instances by
// peeling each loop Unroll times and cutting the final back edge toward
// the loop exit.
func unrollBlocks(f *ir.Func, unroll int) []*blockInstance {
	// Build per-iteration instance layers lazily: we walk the CFG keeping
	// a visit count per block along the current path; a block may be
	// entered at most `unroll` times per path. This duplicates loop bodies
	// like iterative peeling and guarantees a DAG.
	type key struct {
		b     *ir.Block
		count int
	}
	instances := map[key]*blockInstance{}
	var all []*blockInstance
	counts := map[*ir.Block]int{}

	var walk func(blk *ir.Block) *blockInstance
	walk = func(blk *ir.Block) *blockInstance {
		c := counts[blk]
		if c >= unroll {
			return nil // back edge beyond the unroll budget: cut
		}
		k := key{blk, c}
		if inst, ok := instances[k]; ok {
			return inst
		}
		inst := &blockInstance{id: len(all), block: blk}
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

// inline instantiates fn's body as A-CFG nodes. argDefs provides, per
// parameter, the defining nodes of the actual arguments (nil for the
// top-level function). It returns the first node ID, the set of final node
// IDs (rets), and the def sets of returned values.
//
// A spliced call touches only what names it: its own out-edges, recorded
// as they are made, are re-routed from the callee's rets, and its uses are
// left naming the call until resolve substitutes the callee's return defs
// (here for the frame's own return defs, in finish for every ArgDefs list).
func (b *builder) inline(f *ir.Func, chain map[string]int, argDefs [][]int, ctx string) (int, []int, []int, error) {
	if len(b.g.Nodes) > b.opts.MaxNodes {
		return 0, nil, nil, fmt.Errorf("acfg: node budget exceeded (%d)", b.opts.MaxNodes)
	}
	chain[f.Nm]++
	defer func() { chain[f.Nm]-- }()

	insts := unrollBlocks(f, b.opts.Unroll)
	if len(insts) == 0 {
		return 0, nil, nil, fmt.Errorf("acfg: empty function %q", f.Nm)
	}

	ninstrs := 0
	for _, blk := range f.Blocks {
		ninstrs += len(blk.Instrs)
	}
	defs := make(map[*ir.Instr][]int, ninstrs) // instruction → all instances' node IDs
	firstNode := make(map[*blockInstance]int, len(insts))
	lastNode := make(map[*blockInstance]int, len(insts))
	var retNodes []int
	var retDefs []int
	// splice is a call node to inline after wiring, with the indices in
	// b.edges of the edges leaving it.
	type splice struct {
		node   *Node
		callee *ir.Func
		outs   []int
	}
	var splices []*splice
	spliceOf := map[int]*splice{}
	link := func(from, to int) {
		if sp := spliceOf[from]; sp != nil {
			sp.outs = append(sp.outs, len(b.edges))
		}
		b.edge(from, to)
	}

	resolveArg := func(v ir.Value) []int {
		switch v := v.(type) {
		case *ir.Instr:
			return append([]int(nil), defs[v]...)
		case *ir.Param:
			if argDefs != nil && v.Idx < len(argDefs) {
				return append([]int(nil), argDefs[v.Idx]...)
			}
			return nil // top-level parameter: attacker-visible input
		default:
			return nil // constants, globals
		}
	}

	// First pass: create nodes per instance in creation order (instances
	// are discovered in DFS order, which respects dominance for the
	// structured CFGs our lowering emits, so defs precede uses).
	for _, inst := range insts {
		prev := -1
		for _, in := range inst.block.Instrs {
			if in.Op == ir.OpBr {
				continue // unconditional branches are pure wiring
			}
			kind := NInstr
			var callee *ir.Func
			if in.Op == ir.OpCall {
				callee = b.m.Func(in.Callee)
				if callee == nil || callee.IsDecl() || chain[in.Callee] >= b.opts.InlineDepth {
					// Undefined target, or recursion beyond the inline
					// budget: model the call as a havoc node (§5.1).
					callee = nil
					kind = NHavoc
				}
			}
			n := b.newNode(&Node{Kind: kind, Instr: in, Ctx: ctx})
			for _, a := range in.Args {
				n.ArgDefs = append(n.ArgDefs, resolveArg(a))
			}
			defs[in] = append(defs[in], n.ID)
			if prev >= 0 {
				link(prev, n.ID)
			} else {
				firstNode[inst] = n.ID
			}
			prev = n.ID
			if in.Op == ir.OpCall && kind == NInstr {
				sp := &splice{node: n, callee: callee}
				splices = append(splices, sp)
				spliceOf[n.ID] = sp
			}
			if in.Op == ir.OpRet {
				retNodes = append(retNodes, n.ID)
				if len(in.Args) == 1 {
					retDefs = append(retDefs, resolveArg(in.Args[0])...)
				}
			}
		}
		if prev == -1 {
			// Block contained only an unconditional br: synthesize a
			// pass-through marker so wiring has an anchor.
			n := b.newNode(&Node{Kind: NInstr, Instr: &ir.Instr{Op: ir.OpFence, Sub: "nop"}, Ctx: ctx})
			firstNode[inst] = n.ID
			prev = n.ID
		}
		lastNode[inst] = prev
	}

	// Second pass: wire block instances.
	for _, inst := range insts {
		for _, s := range inst.succs {
			link(lastNode[inst], firstNode[s])
		}
	}

	// Third pass: splice inlined callees.
	for _, sp := range splices {
		subCtx := ctx + "/" + sp.callee.Nm + fmt.Sprintf("#%d", chain[sp.callee.Nm]+1)
		subFirst, subLasts, subRets, err := b.inline(sp.callee, chain, sp.node.ArgDefs, subCtx)
		if err != nil {
			return 0, nil, nil, err
		}
		// Wire: call node → callee entry; the call's out-edges now leave
		// the callee's rets, each in the position of the edge it replaces.
		callID := sp.node.ID
		for _, i := range sp.outs {
			if len(subLasts) == 1 {
				b.edges[i][0] = subLasts[0]
			} else {
				b.fanned[i] = subLasts
			}
		}
		b.edge(callID, subFirst)
		b.rets[callID] = subRets
		// Mark the call node as spliced: downstream passes see it as a
		// no-op marker.
		sp.node.Kind = NInstr
		sp.node.Instr = &ir.Instr{Op: ir.OpFence, Sub: "inlined:" + sp.callee.Nm}
		sp.node.ArgDefs = nil
	}

	// Entry point and final nodes. Rets within inlined calls terminate the
	// *callee*; for the instance set built here, function-level lasts are
	// ret nodes. The return defs are resolved now, so the caller's
	// substitution for this call is final.
	first := firstNode[insts[0]]
	return first, retNodes, b.resolve(retDefs), nil
}

// Topo returns the nodes in topological order (the graph is a DAG by
// construction). It is computed once, on the first call, and shared by
// every caller, so it must not be modified.
func (g *Graph) Topo() []int {
	g.topoOnce.Do(func() { g.topo = g.topoOrder() })
	return g.topo
}

// topoOrder sorts the graph by Kahn's algorithm. On a cyclic graph the
// order omits every node on or after a cycle, which is how Verify detects
// one.
func (g *Graph) topoOrder() []int {
	indeg := make([]int, len(g.Nodes))
	for _, ss := range g.succs {
		for _, s := range ss {
			indeg[s]++
		}
	}
	// The order is its own FIFO queue: a node is appended when it becomes
	// ready and expanded when the head passes it.
	order := make([]int, 0, len(g.Nodes))
	for i := range g.Nodes {
		if indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, s := range g.succs[order[head]] {
			indeg[s]--
			if indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	return order
}

// splitChains cuts the graph into maximal straight-line chains. A node
// continues its predecessor's chain when it is that predecessor's only
// successor, the predecessor is its only predecessor, and neither is an
// lfence, so every lfence is a chain of its own. Chains are numbered in
// topological order of their heads, so a successor chain always has a
// higher number; of maps a node to its chain and at to its position in it.
func (g *Graph) splitChains() (of, at []int32, chains int) {
	of, at = make([]int32, g.Len()), make([]int32, g.Len())
	for _, id := range g.Topo() {
		if ps := g.preds[id]; len(ps) == 1 && len(g.succs[ps[0]]) == 1 &&
			!g.Nodes[id].IsLfence() && !g.Nodes[ps[0]].IsLfence() {
			of[id], at[id] = of[ps[0]], at[ps[0]]+1
			continue
		}
		of[id] = int32(chains)
		chains++
	}
	return of, at, chains
}

// chainClosure builds one reflexive reachability row per chain, all in one
// backing array of C × ⌈C/64⌉ words, in a single pass over a reverse
// topological order: a chain's row is itself plus the rows of the chains
// that its tail's successors s start, for those s where enter(s) holds.
// Only a tail has a successor outside its own chain, and reachable chains
// are numbered higher, so a union starts at the successor's own word.
func (g *Graph) chainClosure(enter func(s int) bool) []uint64 {
	words := (g.chains + 63) / 64
	rows := make([]uint64, g.chains*words)
	topo := g.Topo()
	for i := len(topo) - 1; i >= 0; i-- {
		id := topo[i]
		ch := int(g.chainOf[id])
		row := rows[ch*words : (ch+1)*words]
		row[ch/64] |= 1 << (uint(ch) % 64)
		for _, s := range g.succs[id] {
			sc := int(g.chainOf[s])
			if sc == ch || !enter(s) {
				continue
			}
			for w, bits := range rows[sc*words+sc/64 : (sc+1)*words] {
				row[sc/64+w] |= bits
			}
		}
	}
	return rows
}

// chainTest answers reachability from a chain closure: on a shared chain
// by position (from strictly before to, or also from == to when
// reflexive), and otherwise by one bit of from's chain row.
func (g *Graph) chainTest(rows []uint64, reflexive bool) func(from, to int) bool {
	of, at, words := g.chainOf, g.chainAt, (g.chains+63)/64
	return func(from, to int) bool {
		cf, ct := of[from], of[to]
		if cf == ct {
			if reflexive {
				return at[from] <= at[to]
			}
			return at[from] < at[to]
		}
		return rows[int(cf)*words+int(ct)/64]&(1<<(uint(ct)%64)) != 0
	}
}

// Reach returns the graph's transitive closure as a strict reachability
// test: reach(from, to) reports a non-empty successor path from `from` to
// `to`, so reach(n, n) is false on the DAG. The closure is kept per
// straight-line chain, not per node (splitChains); it is built once, on
// the first call, and every call returns the same func, which concurrent
// callers may share.
func (g *Graph) Reach() func(from, to int) bool {
	g.reachOnce.Do(func() {
		g.chainOf, g.chainAt, g.chains = g.splitChains()
		g.chainRows = g.chainClosure(func(int) bool { return true })
		g.reach = g.chainTest(g.chainRows, false)
	})
	return g.reach
}

// FenceFreeReach returns the fence-free closure as a reflexive test:
// ff(from, to) reports a successor path from `from` to `to` that enters no
// lfence (from itself may be one), and ff(n, n) is true. It uses Reach's
// chains, which never run through an lfence, with a chain closure that
// does not enter lfence chains; in a function without an lfence the two
// closures coincide and it shares Reach's rows. It is built once, on the
// first call, and every call returns the same func.
func (g *Graph) FenceFreeReach() func(from, to int) bool {
	g.ffOnce.Do(func() {
		g.Reach()
		rows := g.chainRows
		if slices.ContainsFunc(g.Nodes, (*Node).IsLfence) {
			rows = g.chainClosure(func(s int) bool { return !g.Nodes[s].IsLfence() })
		}
		g.fenceFree = g.chainTest(rows, true)
	})
	return g.fenceFree
}

// BoundedRow returns the nodes within bound successor hops of n, n
// included, one bit per node ID, computed by a level-synchronous
// BFS into a fresh row the caller owns; a bound below 1 yields n alone.
// Pure: it reads only the immutable graph, so concurrent callers are safe.
func (g *Graph) BoundedRow(n, bound int) []uint64 {
	row := make([]uint64, (g.Len()+63)/64)
	row[n/64] |= 1 << (uint(n) % 64)
	frontier, next := []int{n}, []int(nil)
	for depth := 1; depth <= bound && len(frontier) > 0; depth++ {
		next = next[:0]
		for _, u := range frontier {
			for _, s := range g.succs[u] {
				if !hasBit(row, s) {
					row[s/64] |= 1 << (uint(s) % 64)
					next = append(next, s)
				}
			}
		}
		frontier, next = next, frontier
	}
	return row
}

func hasBit(row []uint64, n int) bool { return row[n/64]&(1<<(uint(n)%64)) != 0 }

// isMarker reports whether n is a synthetic node: the `fence nop`
// pass-through of a branch-only block, or the `inlined:` marker a spliced
// call leaves behind.
func isMarker(n *Node) bool {
	return n.Kind == NInstr && n.Instr.Op == ir.OpFence &&
		(n.Instr.Sub == "nop" || strings.HasPrefix(n.Instr.Sub, "inlined:"))
}

// Verify checks the shape contract the downstream passes rely on and
// returns the first violation: node IDs are positions, the graph is a DAG
// whose entry reaches every node, every node with two distinct successors
// is a conditional branch (and none has more), and an instruction has no
// parent block exactly when its node is a synthetic marker.
func (g *Graph) Verify() error {
	for i, n := range g.Nodes {
		if n.ID != i {
			return fmt.Errorf("node at %d has ID %d", i, n.ID)
		}
	}
	// A fresh sort, not Topo's memo: Verify checks the graph as it is now.
	if order := g.topoOrder(); len(order) != g.Len() {
		return fmt.Errorf("cycle: topological order covers %d of %d nodes", len(order), g.Len())
	}
	seen := make([]bool, g.Len())
	seen[g.Entry] = true
	queue := []int{g.Entry}
	for head := 0; head < len(queue); head++ {
		for _, s := range g.succs[queue[head]] {
			if !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
	for i, n := range g.Nodes {
		if !seen[i] {
			return fmt.Errorf("%v is unreachable from the entry", n)
		}
		if k := len(g.succs[i]); k > 2 || k == 2 && !n.IsBranch() {
			return fmt.Errorf("%v has %d successors but is not a two-way branch", n, k)
		}
		if (n.Instr == nil) != (n.Kind == NEntry || n.Kind == NExit) {
			return fmt.Errorf("%v: instruction presence does not match its kind", n)
		}
		if n.Instr != nil && (n.Instr.Blk == nil) != isMarker(n) {
			return fmt.Errorf("%v: parent block is nil=%v, marker=%v", n, n.Instr.Blk == nil, isMarker(n))
		}
	}
	return nil
}
