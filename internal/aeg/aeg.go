// Package aeg builds the Symbolic Abstract Event Graph of §5.2: the A-CFG's
// nodes annotated with boolean variables that encode, per candidate
// execution, whether each node executes architecturally (po) or transiently
// (tfo), which way each branch resolves, and which branches mis-speculate.
// Edge-presence formulas (Fig. 7) become constraints over these variables:
// po implies tfo, a mis-speculation window extends down the wrong arm of an
// architecturally-executed branch for at most the speculation bound, and a
// transient node's operands must themselves be fetched. Nothing is encoded
// when the graph is built: the architectural path semantics are asserted
// on the first solver access, and each branch's window is computed, then
// encoded, on its first use — the directed-search structure that keeps
// Clou's solver work proportional to the queries that reach it (§5.3).
package aeg

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"lcm/internal/acfg"
	"lcm/internal/alias"
	"lcm/internal/dataflow"
	"lcm/internal/sat"
	"lcm/internal/smt"
)

// Options bound the microarchitectural resources (§6: ROB/LSQ 250/50,
// window size Wsize for the sliding-window search §6.2.1).
type Options struct {
	ROB   int // reorder-buffer capacity: max speculation window length
	LSQ   int // load-store-queue capacity: max store-bypass distance
	Wsize int // sliding window for the transmitter search
	// SolverMode selects how detection queries are discharged: warm
	// incremental CDCL (default), or that plus a fresh reference replay
	// of every query with verdict self-checking (see smt.Mode).
	SolverMode smt.Mode
}

func (o *Options) defaults() {
	if o.ROB == 0 {
		o.ROB = 250
	}
	if o.LSQ == 0 {
		o.LSQ = 50
	}
	if o.Wsize == 0 {
		o.Wsize = 100
	}
}

// AEG is the symbolic abstract event graph for one function. Nothing is
// encoded up front: the architectural path semantics are asserted on the
// first accessor that returns a solver expression or queries the solver,
// and each branch's speculation window is computed, then encoded, on its
// first use. Because its accessors mutate it, an AEG is not safe for
// concurrent use.
type AEG struct {
	G     *acfg.Graph
	Alias *alias.Analysis
	S     *smt.Solver
	Opts  Options

	arch []*smt.Expr       // per node: executes architecturally (nil until encoded)
	take map[int]*smt.Expr // branch → first successor taken
	// wins[b]: branch b's speculation window, nil until first use.
	wins []*window
	// best is windowOf's scratch: a node's minimum fetch distance over the
	// window being computed, valid where stamp equals epoch, so computing
	// a window clears nothing.
	best  []int32
	stamp []uint32
	epoch uint32
	// encodeTime sums the wall time the lazy encoders spent: the
	// architectural encoding, window computation and window encoding.
	encodeTime time.Duration
}

// window is one branch's speculation window: the nodes reachable from
// either arm of the branch within the speculation bound without crossing
// a fence, and, once encodeBranch has run, its solver variables.
type window struct {
	arm  [2]dataflow.BitSet // nodes fetchable down successor 0 / 1
	bits dataflow.BitSet    // arm[0] ∪ arm[1]
	// nodes lists the window's members in ascending order; dist and trans
	// run parallel to it. dist is each member's minimum fetch distance
	// from the branch (the first node of an arm is at distance 1).
	nodes   []int
	dist    []int32
	misspec *smt.Expr   // window opened; nil until encoded
	trans   []*smt.Expr // transient in this window; nil until encoded
}

// index returns n's position in nodes, or -1 when n is outside the window.
func (w *window) index(n int) int {
	if !w.bits.Has(n) {
		return -1
	}
	i, _ := slices.BinarySearch(w.nodes, n)
	return i
}

// arms reports down which arms n is fetchable.
func (w *window) arms(n int) [2]bool { return [2]bool{w.arm[0].Has(n), w.arm[1].Has(n)} }

// Build constructs the AEG. It encodes nothing: the path semantics and
// the speculation windows are built on demand by the accessors.
func Build(g *acfg.Graph, al *alias.Analysis, opts Options) *AEG {
	opts.defaults()
	return &AEG{
		G:     g,
		Alias: al,
		S:     smt.NewSolverMode(opts.SolverMode),
		Opts:  opts,
		take:  map[int]*smt.Expr{},
		wins:  make([]*window, g.Len()),
	}
}

// EncodeTime reports the wall time spent so far in lazy encoding: the
// architectural path semantics, per-branch windows and their solver
// constraints.
func (a *AEG) EncodeTime() time.Duration { return a.encodeTime }

// Arch returns the architectural-execution variable of node n.
func (a *AEG) Arch(n int) *smt.Expr {
	a.ensureArch()
	return a.arch[n]
}

// Take returns the branch-direction variable of branch node b (true =
// first successor).
func (a *AEG) Take(b int) *smt.Expr {
	a.ensureArch()
	return a.take[b]
}

// Misspec returns branch b's mis-speculation variable, encoding its window
// constraints on first use.
func (a *AEG) Misspec(b int) *smt.Expr {
	if win := a.encodeBranch(b); win != nil {
		return win.misspec
	}
	return nil
}

// ExecUnder returns the formula "node n is fetched when branch b
// mis-speculates": architecturally, or transiently inside b's window.
func (a *AEG) ExecUnder(b, n int) *smt.Expr {
	t := a.TransUnder(b, n) // first: it runs the encoding a.arch needs
	return smt.Or(a.arch[n], t)
}

// Exec returns the formula "node n executes architecturally" — for
// queries that do not involve a speculation window (STL paths).
func (a *AEG) Exec(n int) *smt.Expr { return a.Arch(n) }

// ensureArch runs encodeArch once, before any other solver variable is
// created, so variable numbering does not depend on which accessor came
// first.
func (a *AEG) ensureArch() {
	if a.arch != nil {
		return
	}
	start := time.Now()
	a.encodeArch()
	a.encodeTime += time.Since(start)
}

// encodeArch asserts the architectural path semantics: the entry executes;
// a node executes iff control reaches it along resolved branch outcomes.
// A node whose only in-edge is unconditional executes exactly when its
// predecessor does, so it shares the predecessor's variable: straight-line
// code costs one variable per block, not one per node.
func (a *AEG) encodeArch() {
	g := a.G
	topo := g.Topo()
	a.arch = make([]*smt.Expr, len(g.Nodes))
	for _, id := range topo {
		if ps := g.Preds(id); id != g.Entry && len(ps) == 1 && a.edgeArm(ps[0], id) < 0 {
			a.arch[id] = a.arch[ps[0]]
			continue
		}
		a.arch[id] = a.S.Var(fmt.Sprintf("arch!%d", id))
	}
	for _, n := range g.Nodes {
		if n.IsBranch() {
			a.take[n.ID] = a.S.Var(fmt.Sprintf("take!%d", n.ID))
		}
	}
	a.S.Assert(a.arch[g.Entry])
	for _, id := range topo {
		ps := g.Preds(id)
		if id == g.Entry || len(ps) == 1 && a.arch[id] == a.arch[ps[0]] {
			continue
		}
		var ins []*smt.Expr
		for _, p := range ps {
			switch a.edgeArm(p, id) {
			case 0:
				ins = append(ins, smt.And(a.arch[p], a.take[p]))
			case 1:
				ins = append(ins, smt.And(a.arch[p], smt.Not(a.take[p])))
			default:
				ins = append(ins, a.arch[p])
			}
		}
		if len(ins) == 0 {
			a.S.Assert(smt.Not(a.arch[id]))
			continue
		}
		a.S.Assert(smt.Iff(a.arch[id], smt.Or(ins...)))
	}
}

// edgeArm reports which arm of branch p the edge p→id is: 0 for the first
// successor (taken), 1 for the second, and -1 when the edge is
// unconditional — p is not a branch, or a degenerate one (cut back edge).
func (a *AEG) edgeArm(p, id int) int {
	if !a.G.Nodes[p].IsBranch() {
		return -1
	}
	succ := a.G.Succs(p)
	switch {
	case len(succ) < 2 || (succ[0] == id && succ[1] == id):
		return -1
	case succ[1] == id && succ[0] != id:
		return 1
	}
	return 0
}

// opensWindow reports whether node b is a two-way branch, the only kind
// that can open a speculation window.
func (a *AEG) opensWindow(b int) bool {
	return b >= 0 && b < len(a.wins) && a.G.Nodes[b].IsBranch() && len(a.G.Succs(b)) >= 2
}

// windowOf returns branch b's speculation window, computing it on first use
// (nil when b opens none): the nodes fetchable down each arm within the
// min(ROB, Wsize) bound without crossing an lfence (§6.1).
func (a *AEG) windowOf(b int) *window {
	if !a.opensWindow(b) {
		return nil
	}
	if w := a.wins[b]; w != nil {
		return w
	}
	start := time.Now()
	n := a.G.Len()
	if a.best == nil {
		a.best, a.stamp = make([]int32, n), make([]uint32, n)
	}
	a.epoch++
	if a.epoch == 0 { // stamp wraparound: drop every stale mark
		clear(a.stamp)
		a.epoch = 1
	}
	w := &window{bits: dataflow.NewBitSet(n)}
	for arm, succ := range a.G.Succs(b)[:2] {
		w.arm[arm] = a.windowFrom(succ)
		w.bits.UnionInto(w.arm[arm])
	}
	size := 0
	for _, word := range w.bits {
		size += bits.OnesCount64(word)
	}
	w.nodes, w.dist = make([]int, 0, size), make([]int32, 0, size)
	for i, word := range w.bits {
		for word != 0 {
			id := i*64 + bits.TrailingZeros64(word)
			word &= word - 1
			w.nodes = append(w.nodes, id)
			w.dist = append(w.dist, a.best[id])
		}
	}
	a.wins[b] = w
	a.encodeTime += time.Since(start)
	return w
}

// encodeBranch asserts branch b's window semantics on first use and
// returns the window (nil when b opens none): misspec implies the branch
// executes architecturally; a node is transient in the window only down
// the arm the branch did not take; and a transient node's operand
// definitions must be fetched (architecturally before the branch, or
// transiently inside the same window).
func (a *AEG) encodeBranch(b int) *window {
	a.ensureArch()
	win := a.windowOf(b)
	if win == nil || win.misspec != nil {
		return win
	}
	start := time.Now()
	m := a.S.Var(fmt.Sprintf("misspec!%d", b))
	win.misspec = m
	win.trans = make([]*smt.Expr, len(win.nodes))
	a.S.Assert(smt.Implies(m, a.arch[b]))
	// Window nodes are visited in ascending order so SMT variable
	// numbering and clause order are run-to-run deterministic.
	for i, n := range win.nodes {
		v := a.S.Var(fmt.Sprintf("transin!%d!%d", b, n))
		win.trans[i] = v
		var armOK []*smt.Expr
		if win.arm[0].Has(n) {
			armOK = append(armOK, smt.Not(a.take[b]))
		}
		if win.arm[1].Has(n) {
			armOK = append(armOK, a.take[b])
		}
		a.S.Assert(smt.Implies(v, m))
		a.S.Assert(smt.Implies(v, smt.Or(armOK...)))
	}
	// Data feasibility, within this window.
	for i, n := range win.nodes {
		node := a.G.Nodes[n]
		v := win.trans[i]
		for _, defs := range node.ArgDefs {
			if len(defs) == 0 {
				continue
			}
			var any []*smt.Expr
			for _, d := range defs {
				e := a.arch[d]
				if j := win.index(d); j >= 0 {
					e = smt.Or(e, win.trans[j])
				}
				any = append(any, e)
			}
			a.S.Assert(smt.Implies(v, smt.Or(any...)))
		}
	}
	a.encodeTime += time.Since(start)
	return win
}

// windowFrom returns the nodes reachable from start within the speculation
// bound, stopping at lfence nodes, by a level-synchronous BFS. Each node
// at depth d (start is at depth 0) lowers its minimum fetch distance in
// the scratch to d+1.
func (a *AEG) windowFrom(start int) dataflow.BitSet {
	bound := min(a.Opts.ROB, a.Opts.Wsize)
	out := dataflow.NewBitSet(a.G.Len())
	if a.G.Nodes[start].IsLfence() {
		return out
	}
	visit := func(n int, depth int) {
		out.Set(n)
		if a.stamp[n] != a.epoch || int32(depth+1) < a.best[n] {
			a.stamp[n], a.best[n] = a.epoch, int32(depth+1)
		}
	}
	visit(start, 0)
	frontier, next := []int{start}, []int(nil)
	for depth := 1; depth <= bound && len(frontier) > 0; depth++ {
		next = next[:0]
		for _, n := range frontier {
			for _, s := range a.G.Succs(n) {
				if out.Has(s) || a.G.Nodes[s].IsLfence() {
					continue // seen, or a speculation barrier
				}
				visit(s, depth)
				next = append(next, s)
			}
		}
		frontier, next = next, frontier
	}
	return out
}

// TransUnder returns the variable "node n is transient in branch b's
// window", or False if n is outside every window of b.
func (a *AEG) TransUnder(b, n int) *smt.Expr {
	if win := a.encodeBranch(b); win != nil {
		if i := win.index(n); i >= 0 {
			return win.trans[i]
		}
	}
	return a.S.False()
}

// Branches lists the branch nodes that can open windows, sorted.
func (a *AEG) Branches() []int {
	var out []int
	for b := range a.G.Nodes {
		if a.opensWindow(b) {
			out = append(out, b)
		}
	}
	return out
}

// WindowInfo reports whether node n lies inside some speculation window
// of branch b and, if so, down which arms it is fetchable and its minimum
// fetch distance from the branch. It is the static window interface the
// pre-solver (internal/presolve) consumes, engine-agnostically, through
// its WindowSource contract.
func (a *AEG) WindowInfo(b, n int) (arms [2]bool, dist int, ok bool) {
	win := a.windowOf(b)
	if win == nil {
		return arms, 0, false
	}
	i := win.index(n)
	if i < 0 {
		return arms, 0, false
	}
	return win.arms(n), int(win.dist[i]), true
}

// ForEachWindowNode visits every node of branch b's speculation window
// with its arm fetchability, in ascending node order (part of
// presolve.WindowSource).
func (a *AEG) ForEachWindowNode(b int, f func(n int, arms [2]bool)) {
	if win := a.windowOf(b); win != nil {
		for _, n := range win.nodes {
			f(n, win.arms(n))
		}
	}
}

// InWindow reports whether node n is statically inside some window of b.
func (a *AEG) InWindow(b, n int) bool {
	win := a.windowOf(b)
	return win != nil && win.bits.Has(n)
}

// Check decides a query under the structural constraints.
func (a *AEG) Check(assumptions ...*smt.Expr) sat.Status {
	return a.CheckCtx(context.Background(), assumptions...)
}

// CheckCtx is Check under a context: a cancelled ctx aborts the solver
// search promptly with sat.Unknown (the FuncTimeout path of §6.2).
func (a *AEG) CheckCtx(ctx context.Context, assumptions ...*smt.Expr) sat.Status {
	a.ensureArch()
	return a.S.CheckCtx(ctx, assumptions...)
}

// SolverStats reports the CDCL search-effort counters accumulated by this
// AEG's solver (decisions, propagations, conflicts, restarts).
func (a *AEG) SolverStats() (decisions, propagations, conflicts, restarts int64) {
	return a.S.SatStats()
}

// EncodeStats reports the number of And/Or Tseitin gates requested.
func (a *AEG) EncodeStats() (gates int64) { return a.S.EncodeStats() }

// ModelCacheHits reports how many queries were answered Sat by extending
// the last model over newly encoded gates, skipping the solver search.
func (a *AEG) ModelCacheHits() int64 { return a.S.ModelCacheHits() }

// SelfCheckStats reports, under Options.SolverMode == smt.ModeCheck, how
// many query verdicts were replayed on a fresh reference solver and how
// many disagreed.
func (a *AEG) SelfCheckStats() (checks, mismatches int64) { return a.S.SelfCheckStats() }

// Model reads back, after a Sat query, the architectural path (node IDs)
// and the transient nodes (from encoded windows), for witness
// construction.
func (a *AEG) Model() (archNodes, transNodes []int, takeDir map[int]bool) {
	a.ensureArch()
	takeDir = map[int]bool{}
	transSeen := map[int]bool{}
	for _, n := range a.G.Topo() {
		if a.S.Value(a.arch[n]) {
			archNodes = append(archNodes, n)
		}
	}
	for _, win := range a.wins {
		if win == nil || win.misspec == nil || !a.S.Value(win.misspec) {
			continue
		}
		for i, v := range win.trans {
			if n := win.nodes[i]; a.S.Value(v) && !transSeen[n] {
				transSeen[n] = true
				transNodes = append(transNodes, n)
			}
		}
	}
	slices.Sort(transNodes)
	for b, v := range a.take {
		takeDir[b] = a.S.Value(v)
	}
	return archNodes, transNodes, takeDir
}
