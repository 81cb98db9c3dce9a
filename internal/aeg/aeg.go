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
	// encodeTime sums the wall time the lazy encoders spent: the
	// architectural encoding, window computation and window encoding.
	encodeTime time.Duration
}

// window is one branch's speculation window: the nodes reachable from
// either arm of the branch within the speculation bound without crossing
// a fence, and, once encodeBranch has run, its solver variables.
type window struct {
	arms map[int][2]bool // node → fetchable down successor 0 / 1
	// dist: minimum fetch distance of each window node from the branch
	// (the first node of an arm is at distance 1).
	dist map[int]int
	// bits: dense mirror of arms' key set — the detectors probe window
	// membership once per (candidate, branch), where the map hash is
	// measurable.
	bits    dataflow.BitSet
	misspec *smt.Expr         // window opened; nil until encoded
	trans   map[int]*smt.Expr // node → transient in this window
}

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
	succ := a.G.Succs(b)
	w := &window{arms: map[int][2]bool{}, dist: map[int]int{}}
	for arm := 0; arm < 2; arm++ {
		for n, d := range a.windowFrom(succ[arm]) {
			arms := w.arms[n]
			arms[arm] = true
			w.arms[n] = arms
			if old, ok := w.dist[n]; !ok || d+1 < old {
				w.dist[n] = d + 1
			}
		}
	}
	w.bits = dataflow.NewBitSet(a.G.Len())
	for n := range w.arms {
		w.bits.Set(n)
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
	win.trans = make(map[int]*smt.Expr, len(win.arms))
	a.S.Assert(smt.Implies(m, a.arch[b]))
	// Window nodes are visited in sorted order so SMT variable numbering
	// and clause order are run-to-run deterministic; otherwise the CDCL
	// search (and its effort counters in run reports) would depend on Go
	// map iteration order.
	nodes := make([]int, 0, len(win.arms))
	for n := range win.arms {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	for _, n := range nodes {
		arms := win.arms[n]
		v := a.S.Var(fmt.Sprintf("transin!%d!%d", b, n))
		win.trans[n] = v
		var armOK []*smt.Expr
		if arms[0] {
			armOK = append(armOK, smt.Not(a.take[b]))
		}
		if arms[1] {
			armOK = append(armOK, a.take[b])
		}
		a.S.Assert(smt.Implies(v, m))
		a.S.Assert(smt.Implies(v, smt.Or(armOK...)))
	}
	// Data feasibility, within this window.
	for _, n := range nodes {
		node := a.G.Nodes[n]
		v := win.trans[n]
		for _, defs := range node.ArgDefs {
			if len(defs) == 0 {
				continue
			}
			var any []*smt.Expr
			for _, d := range defs {
				e := a.arch[d]
				if dv, ok := win.trans[d]; ok {
					e = smt.Or(e, dv)
				}
				any = append(any, e)
			}
			a.S.Assert(smt.Implies(v, smt.Or(any...)))
		}
	}
	a.encodeTime += time.Since(start)
	return win
}

// windowFrom returns nodes reachable from start within the speculation
// bound, stopping at lfence nodes, each mapped to its BFS depth from
// start (start itself is at depth 0).
func (a *AEG) windowFrom(start int) map[int]int {
	bound := a.Opts.ROB
	if a.Opts.Wsize < bound {
		bound = a.Opts.Wsize
	}
	out := map[int]int{}
	if a.G.Nodes[start].IsFence() && a.G.Nodes[start].Instr.Sub == "lfence" {
		return out
	}
	out[start] = 0
	frontier := []int{start}
	for depth := 0; depth < bound && len(frontier) > 0; depth++ {
		var next []int
		for _, n := range frontier {
			for _, s := range a.G.Succs(n) {
				if _, seen := out[s]; seen {
					continue
				}
				sn := a.G.Nodes[s]
				if sn.IsFence() && sn.Instr.Sub == "lfence" {
					continue // speculation barrier
				}
				out[s] = depth + 1
				next = append(next, s)
			}
		}
		frontier = next
	}
	return out
}

// TransUnder returns the variable "node n is transient in branch b's
// window", or False if n is outside every window of b.
func (a *AEG) TransUnder(b, n int) *smt.Expr {
	if win := a.encodeBranch(b); win != nil {
		if v, ok := win.trans[n]; ok {
			return v
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
	arms, ok = win.arms[n]
	if !ok {
		return arms, 0, false
	}
	return arms, win.dist[n], true
}

// ForEachWindowNode visits every node of branch b's speculation window
// with its arm fetchability (part of presolve.WindowSource). Iteration
// order is the window map's, i.e. unspecified; callers must not depend
// on it.
func (a *AEG) ForEachWindowNode(b int, f func(n int, arms [2]bool)) {
	if win := a.windowOf(b); win != nil {
		for n, arms := range win.arms {
			f(n, arms)
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
		for n, v := range win.trans {
			if a.S.Value(v) && !transSeen[n] {
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
