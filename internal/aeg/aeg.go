// Package aeg builds the Symbolic Abstract Event Graph of §5.2: the A-CFG's
// nodes annotated with boolean variables that encode, per candidate
// execution, whether each node executes architecturally (po) or transiently
// (tfo), which way each branch resolves, and which branches mis-speculate.
// Edge-presence formulas (Fig. 7) become constraints over these variables:
// po implies tfo, a mis-speculation window extends down the wrong arm of an
// architecturally-executed branch for at most the speculation bound, and a
// transient node's operands must themselves be fetched. Window constraints
// are encoded lazily, per branch, on first use — the directed-search
// structure that keeps Clou's solver queries small (§5.3).
package aeg

import (
	"context"
	"fmt"

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

// AEG is the symbolic abstract event graph for one function.
type AEG struct {
	G     *acfg.Graph
	Alias *alias.Analysis
	S     *smt.Solver
	Opts  Options

	arch    []*smt.Expr          // per node: executes architecturally
	take    map[int]*smt.Expr    // branch → first successor taken
	misspec map[int]*smt.Expr    // branch → window opened (lazily encoded)
	transIn map[[2]int]*smt.Expr // (branch, node) → node in that window
	encoded map[int]bool         // branches whose window is asserted
	// windows[b]: nodes reachable from either arm of b within the
	// speculation bound without crossing a fence, flagged per arm.
	windows map[int]map[int][2]bool
	// winBits[b]: dense mirror of windows[b]'s key set — the detectors
	// probe window membership once per (candidate, branch), where the
	// nested map hash is measurable.
	winBits map[int]dataflow.BitSet
	// windist[b]: minimum fetch distance of each window node from b (the
	// first node of an arm is at distance 1).
	windist map[int]map[int]int
}

// Build constructs the AEG, asserts the architectural path semantics, and
// precomputes (but does not yet assert) the speculation windows.
func Build(g *acfg.Graph, al *alias.Analysis, opts Options) *AEG {
	opts.defaults()
	a := &AEG{
		G:       g,
		Alias:   al,
		S:       smt.NewSolverMode(opts.SolverMode),
		Opts:    opts,
		take:    map[int]*smt.Expr{},
		misspec: map[int]*smt.Expr{},
		transIn: map[[2]int]*smt.Expr{},
		encoded: map[int]bool{},
		windows: map[int]map[int][2]bool{},
		winBits: map[int]dataflow.BitSet{},
		windist: map[int]map[int]int{},
	}
	a.encodeArch()
	a.computeWindows()
	return a
}

// Arch returns the architectural-execution variable of node n.
func (a *AEG) Arch(n int) *smt.Expr { return a.arch[n] }

// Take returns the branch-direction variable of branch node b (true =
// first successor).
func (a *AEG) Take(b int) *smt.Expr { return a.take[b] }

// Misspec returns branch b's mis-speculation variable, encoding its window
// constraints on first use.
func (a *AEG) Misspec(b int) *smt.Expr {
	a.encodeBranch(b)
	return a.misspec[b]
}

// Exec returns the formula "node n is fetched when branch b
// mis-speculates": architecturally, or transiently inside b's window.
func (a *AEG) ExecUnder(b, n int) *smt.Expr {
	return smt.Or(a.arch[n], a.TransUnder(b, n))
}

// Exec returns the formula "node n executes architecturally" — for
// queries that do not involve a speculation window (STL paths).
func (a *AEG) Exec(n int) *smt.Expr { return a.arch[n] }

// encodeArch asserts the architectural path semantics: the entry executes;
// a node executes iff control reaches it along resolved branch outcomes.
func (a *AEG) encodeArch() {
	g := a.G
	a.arch = make([]*smt.Expr, len(g.Nodes))
	for _, id := range g.Topo() {
		a.arch[id] = a.S.Var(fmt.Sprintf("arch!%d", id))
	}
	for _, n := range g.Nodes {
		if n.IsBranch() {
			a.take[n.ID] = a.S.Var(fmt.Sprintf("take!%d", n.ID))
		}
	}
	a.S.Assert(a.arch[g.Entry])
	for _, id := range g.Topo() {
		if id == g.Entry {
			continue
		}
		var ins []*smt.Expr
		for _, p := range g.Preds(id) {
			pn := g.Nodes[p]
			cond := a.arch[p]
			if pn.IsBranch() {
				succ := g.Succs(p)
				switch {
				case len(succ) < 2 || (succ[0] == id && succ[1] == id):
					// degenerate branch (cut back edge): unconditional
				case succ[1] == id && succ[0] != id:
					cond = smt.And(cond, smt.Not(a.take[p]))
				default:
					cond = smt.And(cond, a.take[p])
				}
			}
			ins = append(ins, cond)
		}
		if len(ins) == 0 {
			a.S.Assert(smt.Not(a.arch[id]))
			continue
		}
		a.S.Assert(smt.Iff(a.arch[id], smt.Or(ins...)))
	}
}

// computeWindows statically derives each branch's speculation window: the
// nodes fetchable down each arm within the min(ROB, Wsize) bound without
// crossing an lfence (§6.1).
func (a *AEG) computeWindows() {
	for _, b := range a.G.Nodes {
		if !b.IsBranch() {
			continue
		}
		succ := a.G.Succs(b.ID)
		if len(succ) < 2 {
			continue
		}
		win := map[int][2]bool{}
		dist := map[int]int{}
		for arm := 0; arm < 2; arm++ {
			for n, d := range a.windowFrom(succ[arm]) {
				w := win[n]
				w[arm] = true
				win[n] = w
				if old, ok := dist[n]; !ok || d+1 < old {
					dist[n] = d + 1
				}
			}
		}
		a.windows[b.ID] = win
		a.windist[b.ID] = dist
		bits := dataflow.NewBitSet(a.G.Len())
		for n := range win {
			bits.Set(n)
		}
		a.winBits[b.ID] = bits
	}
}

// encodeBranch lazily asserts branch b's window semantics: misspec implies
// the branch executes architecturally; a node is transient in the window
// only down the arm the branch did not take; and a transient node's
// operand definitions must be fetched (architecturally before the branch,
// or transiently inside the same window).
func (a *AEG) encodeBranch(b int) {
	if a.encoded[b] {
		return
	}
	win, ok := a.windows[b]
	if !ok {
		return
	}
	a.encoded[b] = true
	m := a.S.Var(fmt.Sprintf("misspec!%d", b))
	a.misspec[b] = m
	a.S.Assert(smt.Implies(m, a.arch[b]))
	// Window nodes are visited in sorted order so SMT variable numbering
	// and clause order are run-to-run deterministic; otherwise the CDCL
	// search (and its effort counters in run reports) would depend on Go
	// map iteration order.
	nodes := make([]int, 0, len(win))
	for n := range win {
		nodes = append(nodes, n)
	}
	sortInts(nodes)
	for _, n := range nodes {
		arms := win[n]
		v := a.S.Var(fmt.Sprintf("transin!%d!%d", b, n))
		a.transIn[[2]int{b, n}] = v
		var armOK []*smt.Expr
		if arms[0] {
			armOK = append(armOK, smt.Not(a.take[b]))
		}
		if arms[1] {
			armOK = append(armOK, a.take[b])
		}
		a.S.Assert(smt.Implies(v, smt.And(m, smt.Or(armOK...))))
	}
	// Data feasibility, within this window.
	for _, n := range nodes {
		node := a.G.Nodes[n]
		v := a.transIn[[2]int{b, n}]
		for _, defs := range node.ArgDefs {
			if len(defs) == 0 {
				continue
			}
			var any []*smt.Expr
			for _, d := range defs {
				e := a.arch[d]
				if dv, ok := a.transIn[[2]int{b, d}]; ok {
					e = smt.Or(e, dv)
				}
				any = append(any, e)
			}
			a.S.Assert(smt.Implies(v, smt.Or(any...)))
		}
	}
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
	a.encodeBranch(b)
	if v, ok := a.transIn[[2]int{b, n}]; ok {
		return v
	}
	return a.S.False()
}

// Branches lists the branch nodes that can open windows, sorted.
func (a *AEG) Branches() []int {
	var out []int
	for b := range a.windows {
		out = append(out, b)
	}
	sortInts(out)
	return out
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// WindowInfo reports whether node n lies inside some speculation window
// of branch b and, if so, down which arms it is fetchable and its minimum
// fetch distance from the branch. It is the static window interface the
// pre-solver (internal/presolve) consumes, engine-agnostically, through
// its WindowSource contract.
func (a *AEG) WindowInfo(b, n int) (arms [2]bool, dist int, ok bool) {
	win, okb := a.windows[b]
	if !okb {
		return arms, 0, false
	}
	arms, ok = win[n]
	if !ok {
		return arms, 0, false
	}
	return arms, a.windist[b][n], true
}

// ForEachWindowNode visits every node of branch b's speculation window
// with its arm fetchability (part of presolve.WindowSource). Iteration
// order is the windows map's, i.e. unspecified; callers must not depend
// on it.
func (a *AEG) ForEachWindowNode(b int, f func(n int, arms [2]bool)) {
	for n, arms := range a.windows[b] {
		f(n, arms)
	}
}

// InWindow reports whether node n is statically inside some window of b.
func (a *AEG) InWindow(b, n int) bool {
	bits, ok := a.winBits[b]
	return ok && bits.Has(n)
}

// Check decides a query under the structural constraints.
func (a *AEG) Check(assumptions ...*smt.Expr) sat.Status {
	return a.S.Check(assumptions...)
}

// CheckCtx is Check under a context: a cancelled ctx aborts the solver
// search promptly with sat.Unknown (the FuncTimeout path of §6.2).
func (a *AEG) CheckCtx(ctx context.Context, assumptions ...*smt.Expr) sat.Status {
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
	takeDir = map[int]bool{}
	transSeen := map[int]bool{}
	for _, n := range a.G.Topo() {
		if a.S.Value(a.arch[n]) {
			archNodes = append(archNodes, n)
		}
	}
	for b := range a.encoded {
		if !a.S.Value(a.misspec[b]) {
			continue
		}
		for n := range a.windows[b] {
			if v, ok := a.transIn[[2]int{b, n}]; ok && a.S.Value(v) && !transSeen[n] {
				transSeen[n] = true
				transNodes = append(transNodes, n)
			}
		}
	}
	sortInts(transNodes)
	for b, v := range a.take {
		takeDir[b] = a.S.Value(v)
	}
	return archNodes, transNodes, takeDir
}
