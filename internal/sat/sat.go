// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with two-watched-literal propagation, VSIDS-style activity
// ordering, phase saving, first-UIP clause learning with recursive
// minimization, and Luby restarts. It is the decision engine underneath
// the smt package, standing in for the Z3 solver Clou uses (§5.3): the
// S-AEG queries Clou issues are propositional over edge-presence and
// aliasing variables, so a CDCL core is sufficient.
package sat

import (
	"context"
	"errors"
	"slices"
	"sort"

	"lcm/internal/faults"
)

// Lit is a literal: variable index (1-based) with sign. Positive values
// denote the variable, negative its negation (DIMACS convention).
type Lit int

// Var returns the literal's variable index (1-based).
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Neg returns the negated literal.
func (l Lit) Neg() Lit { return -l }

// Sign reports whether the literal is positive.
func (l Lit) Sign() bool { return l > 0 }

// Status is a solver verdict.
type Status int

// Solver verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

type clause struct {
	lits    []Lit
	learnt  bool
	act     float64
	deleted bool
}

type watcher struct {
	c       *clause
	blocker Lit
}

// Solver is a CDCL SAT solver. The zero value is not usable; construct
// with New.
type Solver struct {
	nVars   int
	clauses []*clause
	learnts []*clause
	// watches is indexed by watchIdx(lit): 2v for the positive literal of
	// variable v, 2v+1 for the negative.
	watches [][]watcher

	assigns  []lbool // 1-based by var
	level    []int
	reason   []*clause
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	polarity []bool // saved phases
	order    *varHeap

	clauseInc    float64
	conflicts    int64
	propagations int64
	decisions    int64
	restarts     int64

	// assumption handling
	assumptions []Lit
	conflictSet map[int]bool // vars of failed assumptions

	modelVal    []bool // satisfying assignment captured at Sat time
	seenScratch []bool // reusable conflict-analysis buffer

	// budget bounds one SolveCtx call's search effort; abortCause records
	// why the last SolveCtx returned Unknown (see AbortCause).
	budget     Budget
	abortCause error

	ok bool // false once a top-level contradiction is found
}

// Budget bounds one solve call's search effort. Zero fields are
// unlimited. Unlike a wall-clock deadline, an effort budget is
// deterministic: the same query under the same budget always aborts at
// the same point, on any machine — which is what lets budget-degraded
// analysis stay byte-reproducible across runs and worker counts.
type Budget struct {
	Conflicts int64 // max conflicts per solve
	Decisions int64 // max decisions per solve
}

func (b Budget) unlimited() bool { return b.Conflicts <= 0 && b.Decisions <= 0 }

// SetBudget installs the per-solve effort budget; it applies to every
// subsequent SolveCtx until changed. The zero Budget removes all bounds.
func (s *Solver) SetBudget(b Budget) { s.budget = b }

// AbortCause classifies the last SolveCtx's Unknown verdict:
// faults.ErrBudget when the effort budget ran out, faults.ErrCanceled /
// faults.ErrDeadline when the context fired, nil after a decided (Sat or
// Unsat) call. Callers that see Unknown consult this instead of guessing;
// a budget abort must never be read as UNSAT.
func (s *Solver) AbortCause() error { return s.abortCause }

// New returns an empty solver.
func New() *Solver {
	s := &Solver{
		watches:   make([][]watcher, 2),
		varInc:    1.0,
		clauseInc: 1.0,
		ok:        true,
	}
	s.assigns = append(s.assigns, lUndef) // index 0 unused
	s.level = append(s.level, -1)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, false)
	s.order = newVarHeap(&s.activity)
	return s
}

// NewVar allocates a fresh variable and returns its index (1-based).
func (s *Solver) NewVar() int {
	s.nVars++
	s.assigns = append(s.assigns, lUndef)
	s.level = append(s.level, -1)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, false)
	s.watches = append(s.watches, nil, nil)
	s.order.push(s.nVars)
	return s.nVars
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.nVars }

// NumClauses returns the number of problem clauses added.
func (s *Solver) NumClauses() int { return len(s.clauses) }

// Counters returns the full search-effort counter set — decisions,
// propagations, conflicts, and restarts — for metrics snapshots.
func (s *Solver) Counters() (decisions, propagations, conflicts, restarts int64) {
	return s.decisions, s.propagations, s.conflicts, s.restarts
}

var errBadLit = errors.New("sat: literal references unallocated variable")

// AddClause adds a clause (a disjunction of literals). It returns false if
// the solver is already in an unsatisfiable state at the top level.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	for _, l := range lits {
		if l == 0 || l.Var() > s.nVars {
			panic(errBadLit)
		}
	}
	// SolveCtx always returns at decision level 0, so every assignment
	// seen here is a root fact. Simplify: sort, drop duplicates, detect
	// tautologies, drop literals false at level 0, satisfy-check against
	// level-0 assignments.
	slices.Sort(lits)
	out := lits[:0]
	var prev Lit
	for _, l := range lits {
		if l == prev {
			continue
		}
		if l == -prev {
			return true // tautology
		}
		switch s.value(l) {
		case lTrue:
			if s.level[l.Var()] == 0 {
				return true // already satisfied at top level
			}
		case lFalse:
			if s.level[l.Var()] == 0 {
				prev = l
				continue // drop top-level-false literal
			}
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if s.value(out[0]) == lFalse {
			s.ok = false
			return false
		}
		if s.value(out[0]) == lUndef {
			s.uncheckedEnqueue(out[0], nil)
			if s.propagate() != nil {
				s.ok = false
				return false
			}
		}
		return true
	}
	c := &clause{lits: append([]Lit(nil), out...)}
	s.clauses = append(s.clauses, c)
	s.attach(c)
	return true
}

// seenBuf returns a zeroed scratch buffer indexed by variable; callers
// must clear the entries they set before returning.
func (s *Solver) seenBuf() []bool {
	for len(s.seenScratch) <= s.nVars {
		s.seenScratch = append(s.seenScratch, false)
	}
	return s.seenScratch
}

// watchIdx maps a literal to its watch-list slot.
func watchIdx(l Lit) int {
	if l > 0 {
		return 2 * int(l)
	}
	return 2*int(-l) + 1
}

func (s *Solver) attach(c *clause) {
	i0, i1 := watchIdx(c.lits[0].Neg()), watchIdx(c.lits[1].Neg())
	s.watches[i0] = append(s.watches[i0], watcher{c, c.lits[1]})
	s.watches[i1] = append(s.watches[i1], watcher{c, c.lits[0]})
}

func (s *Solver) value(l Lit) lbool {
	v := s.assigns[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Sign() == (v == lTrue) {
		return lTrue
	}
	return lFalse
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	if l.Sign() {
		s.assigns[v] = lTrue
	} else {
		s.assigns[v] = lFalse
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns a conflicting clause or
// nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		wi := watchIdx(p)
		ws := s.watches[wi]
		kept := ws[:0]
		var conflict *clause
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if conflict != nil {
				kept = append(kept, ws[i:]...)
				break
			}
			if s.value(w.blocker) == lTrue {
				kept = append(kept, w)
				continue
			}
			c := w.c
			if c.deleted {
				continue
			}
			s.propagations++
			// Ensure the false literal is lits[1].
			if c.lits[0] == p.Neg() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					ni := watchIdx(c.lits[1].Neg())
					s.watches[ni] = append(s.watches[ni], watcher{c, first})
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{c, first})
			if s.value(first) == lFalse {
				conflict = c
				s.qhead = len(s.trail)
				continue
			}
			s.uncheckedEnqueue(first, c)
		}
		s.watches[wi] = kept
		if conflict != nil {
			return conflict
		}
	}
	return nil
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[level]; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.assigns[v] == lTrue
		s.assigns[v] = lUndef
		s.reason[v] = nil
		s.order.push(v)
	}
	s.trail = s.trail[:s.trailLim[level]]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// analyze performs 1UIP conflict analysis, returning the learnt clause
// (asserting literal first) and the backtrack level.
func (s *Solver) analyze(conflict *clause) ([]Lit, int) {
	learnt := []Lit{0} // placeholder for asserting literal
	seen := s.seenBuf()
	var touched []int
	counter := 0
	var p Lit
	idx := len(s.trail) - 1
	c := conflict

	for {
		start := 0
		if p != 0 {
			start = 1
		}
		if c.learnt {
			s.bumpClause(c)
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if !seen[v] && s.level[v] > 0 {
				seen[v] = true
				touched = append(touched, v)
				s.bumpVar(v)
				if s.level[v] >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find next literal on the trail to resolve on.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		c = s.reason[p.Var()]
	}
	learnt[0] = p.Neg()

	// Recursive minimization: drop literals implied by the rest.
	s.minimize(&learnt, seen)
	for _, v := range touched {
		seen[v] = false
	}
	for _, l := range learnt {
		seen[l.Var()] = false
	}

	// Compute backtrack level: the second-highest level in the clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}
	return learnt, btLevel
}

func (s *Solver) minimize(learnt *[]Lit, seen []bool) {
	// Re-mark kept literals.
	for _, l := range (*learnt)[1:] {
		seen[l.Var()] = true
	}
	out := (*learnt)[:1]
	for _, l := range (*learnt)[1:] {
		if s.reason[l.Var()] == nil || !s.redundant(l, seen, 0) {
			out = append(out, l)
		}
	}
	*learnt = out
}

// redundant reports whether l is implied by the remaining learnt literals
// (bounded recursion).
func (s *Solver) redundant(l Lit, seen []bool, depth int) bool {
	if depth > 16 {
		return false
	}
	c := s.reason[l.Var()]
	if c == nil {
		return false
	}
	for _, q := range c.lits {
		if q.Var() == l.Var() {
			continue
		}
		if s.level[q.Var()] == 0 || seen[q.Var()] {
			continue
		}
		if s.reason[q.Var()] == nil || !s.redundant(q, seen, depth+1) {
			return false
		}
	}
	return true
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(c *clause) {
	c.act += s.clauseInc
	if c.act > 1e20 {
		for _, lc := range s.learnts {
			lc.act *= 1e-20
		}
		s.clauseInc *= 1e-20
	}
}

func (s *Solver) decayActivities() {
	s.varInc /= 0.95
	s.clauseInc /= 0.999
}

// reduceDB removes half of the learnt clauses with lowest activity.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool { return s.learnts[i].act > s.learnts[j].act })
	keep := s.learnts[:len(s.learnts)/2]
	for _, c := range s.learnts[len(s.learnts)/2:] {
		if s.locked(c) {
			keep = append(keep, c)
			continue
		}
		c.deleted = true
	}
	s.learnts = append([]*clause(nil), keep...)
}

func (s *Solver) locked(c *clause) bool {
	return s.value(c.lits[0]) == lTrue && s.reason[c.lits[0].Var()] == c
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<k)-1 {
			return int64(1) << (k - 1)
		}
		if i < (int64(1)<<k)-1 {
			return luby(i - (int64(1) << (k - 1)) + 1)
		}
	}
}

// Solve determines satisfiability under the given assumptions. On Sat, the
// model is available via Value; on Unsat under assumptions, the
// failed assumption set is available via FailedAssumptions.
func (s *Solver) Solve(assumptions ...Lit) Status {
	return s.SolveCtx(context.Background(), assumptions...)
}

// pollEvery is how many conflicts or decisions pass between context
// checks in SolveCtx: frequent enough that cancellation binds within
// milliseconds even on hard instances, rare enough to stay off the
// propagation fast path.
const pollEvery = 256

// SolveCtx is Solve under a context: the search polls ctx every few
// hundred conflicts/decisions and returns Unknown once it is cancelled,
// leaving the solver reusable (all learnt clauses are kept).
//
// The solver is incremental across calls: VSIDS activities, saved
// phases, and learnt clauses survive, while every call starts from and
// returns to decision level 0. Any verdict is identical to what a fresh
// solve of the same formula under the same assumptions would return —
// only the search effort differs.
func (s *Solver) SolveCtx(ctx context.Context, assumptions ...Lit) Status {
	if !s.ok {
		return Unsat
	}
	s.abortCause = nil
	s.assumptions = append(s.assumptions[:0], assumptions...)
	s.conflictSet = nil
	defer s.cancelUntil(0)

	baseConflicts, baseDecisions := s.conflicts, s.decisions
	restart := int64(1)
	conflictBudget := 100 * luby(restart)
	conflictsThisRestart := int64(0)
	sincePoll := 0
	cancelled := func() bool {
		sincePoll++
		if sincePoll < pollEvery {
			return false
		}
		sincePoll = 0
		select {
		case <-ctx.Done():
			s.abortCause = faults.FromContext(ctx.Err())
			return true
		default:
			return false
		}
	}
	// exhausted reports whether this solve's effort budget ran out; the
	// check is exact (every conflict/decision), so budget aborts land on
	// the same step in every run.
	exhausted := func() bool {
		if s.budget.unlimited() {
			return false
		}
		if s.budget.Conflicts > 0 && s.conflicts-baseConflicts >= s.budget.Conflicts {
			s.abortCause = faults.Budgetf("solver: %d conflicts", s.conflicts-baseConflicts)
			return true
		}
		if s.budget.Decisions > 0 && s.decisions-baseDecisions >= s.budget.Decisions {
			s.abortCause = faults.Budgetf("solver: %d decisions", s.decisions-baseDecisions)
			return true
		}
		return false
	}
	// A context that arrives already cancelled aborts before any search.
	select {
	case <-ctx.Done():
		s.abortCause = faults.FromContext(ctx.Err())
		return Unknown
	default:
	}

	for {
		conflict := s.propagate()
		if conflict != nil {
			s.conflicts++
			conflictsThisRestart++
			if s.decisionLevel() == 0 {
				// A root-level conflict is a decided verdict whatever the
				// budget says; returning Unknown here would leave a
				// root-conflicting database behind for later warm calls.
				s.ok = false
				return Unsat
			}
			if cancelled() || exhausted() {
				return Unknown
			}
			if s.decisionLevel() <= len(s.currentAssumed()) {
				// Conflict depends only on assumptions. Analyze it while
				// the trail still holds the conflicting propagations; the
				// deferred rewind unwinds them afterwards.
				s.conflictSet = s.analyzeFinal(conflict)
				return Unsat
			}
			learnt, btLevel := s.analyze(conflict)
			if btLevel < len(s.currentAssumed()) {
				btLevel = len(s.currentAssumed())
			}
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.cancelUntil(0)
				if s.value(learnt[0]) == lFalse {
					s.ok = false
					return Unsat
				}
				if s.value(learnt[0]) == lUndef {
					s.uncheckedEnqueue(learnt[0], nil)
				}
				// Re-establish assumptions on the next loop iteration.
				continue
			}
			c := &clause{lits: append([]Lit(nil), learnt...), learnt: true}
			s.learnts = append(s.learnts, c)
			s.attach(c)
			s.bumpClause(c)
			if s.value(learnt[0]) == lUndef {
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.decayActivities()
			if int64(len(s.learnts)) > int64(100+10*len(s.clauses)) {
				s.reduceDB()
			}
			continue
		}

		if conflictsThisRestart >= conflictBudget {
			restart++
			s.restarts++
			conflictBudget = 100 * luby(restart)
			conflictsThisRestart = 0
			s.cancelUntil(0)
			continue
		}

		// Extend assumptions first.
		if s.decisionLevel() < len(s.assumptions) {
			a := s.assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				// Already satisfied: open an empty decision level so the
				// level count still tracks assumption depth.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				s.conflictSet = s.analyzeFinalLit(a)
				return Unsat
			default:
				s.trailLim = append(s.trailLim, len(s.trail))
				s.uncheckedEnqueue(a, nil)
				continue
			}
		}

		// Decide.
		v := s.pickBranchVar()
		if v == 0 {
			s.captureModel()
			return Sat
		}
		s.decisions++
		if cancelled() || exhausted() {
			return Unknown
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		if s.polarity[v] {
			s.uncheckedEnqueue(Lit(v), nil)
		} else {
			s.uncheckedEnqueue(Lit(-v), nil)
		}
	}
}

func (s *Solver) currentAssumed() []Lit {
	n := s.decisionLevel()
	if n > len(s.assumptions) {
		n = len(s.assumptions)
	}
	return s.assumptions[:n]
}

func (s *Solver) pickBranchVar() int {
	for {
		v := s.order.pop()
		if v == 0 {
			return 0
		}
		if s.assigns[v] == lUndef {
			return v
		}
	}
}

// analyzeFinal collects the assumption variables involved in a conflict.
func (s *Solver) analyzeFinal(conflict *clause) map[int]bool {
	out := make(map[int]bool)
	seen := make(map[int]bool)
	var expand func(c *clause)
	expand = func(c *clause) {
		for _, l := range c.lits {
			v := l.Var()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			if s.reason[v] == nil {
				out[v] = true
			} else {
				expand(s.reason[v])
			}
		}
	}
	expand(conflict)
	return out
}

func (s *Solver) analyzeFinalLit(a Lit) map[int]bool {
	out := map[int]bool{a.Var(): true}
	seen := make(map[int]bool)
	var walk func(l Lit)
	walk = func(l Lit) {
		v := l.Var()
		if seen[v] || s.level[v] == 0 {
			return
		}
		seen[v] = true
		if s.reason[v] == nil {
			out[v] = true
			return
		}
		for _, q := range s.reason[v].lits {
			if q.Var() != v {
				walk(q)
			}
		}
	}
	walk(a)
	return out
}

// FailedAssumptions returns, after an Unsat result under assumptions, the
// subset of assumption literals involved in the conflict (an unsat core
// over assumptions).
func (s *Solver) FailedAssumptions() []Lit {
	var out []Lit
	for _, a := range s.assumptions {
		if s.conflictSet[a.Var()] {
			out = append(out, a)
		}
	}
	return out
}

func (s *Solver) captureModel() {
	s.modelVal = make([]bool, s.nVars+1)
	for v := 1; v <= s.nVars; v++ {
		switch s.assigns[v] {
		case lTrue:
			s.modelVal[v] = true
		case lFalse:
			s.modelVal[v] = false
		default:
			s.modelVal[v] = s.polarity[v]
		}
	}
}

// Value returns the model value of variable v after a Sat result.
func (s *Solver) Value(v int) bool {
	if s.modelVal == nil || v <= 0 || v >= len(s.modelVal) {
		return false
	}
	return s.modelVal[v]
}

// varHeap is a max-heap over variable activity.
type varHeap struct {
	heap     []int
	indices  []int // var → heap position, -1 if absent
	activity *[]float64
}

func newVarHeap(act *[]float64) *varHeap {
	return &varHeap{activity: act}
}

func (h *varHeap) ensure(v int) {
	for len(h.indices) <= v {
		h.indices = append(h.indices, -1)
	}
}

func (h *varHeap) less(a, b int) bool { return (*h.activity)[a] > (*h.activity)[b] }

func (h *varHeap) push(v int) {
	h.ensure(v)
	if h.indices[v] >= 0 {
		return
	}
	h.heap = append(h.heap, v)
	h.indices[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() int {
	if len(h.heap) == 0 {
		return 0
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.indices[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.indices[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) update(v int) {
	h.ensure(v)
	if i := h.indices[v]; i >= 0 {
		h.up(i)
		h.down(i)
	}
}

func (h *varHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[p]) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.heap) && h.less(h.heap[l], h.heap[smallest]) {
			smallest = l
		}
		if r < len(h.heap) && h.less(h.heap[r], h.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.indices[h.heap[i]] = i
	h.indices[h.heap[j]] = j
}
