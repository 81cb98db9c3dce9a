// Package smt provides a boolean formula layer over the sat package: named
// variables, And/Or/Not/Implies/Iff connectives, Tseitin transformation to
// CNF, incremental solving under assumptions, and sequential-counter
// cardinality constraints. Together with sat it replaces the Z3 instance
// Clou drives (§5.3): symbolic S-AEG edges become formula variables, the
// consistency/confidentiality predicates become asserted formulas, and
// witness executions are read back from models.
package smt

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"lcm/internal/sat"
)

type op int

const (
	opVar op = iota
	opTrue
	opFalse
	opAnd
	opOr
	opNot
)

// Expr is an immutable boolean formula. Build leaves with Solver.Var,
// Solver.True, and Solver.False; combine with And/Or/Not/Implies/Iff.
type Expr struct {
	op   op
	kids []*Expr
	name string
	v    int // sat variable for opVar
}

// Name returns the variable name ("" for non-variables).
func (e *Expr) Name() string { return e.name }

// String renders the formula.
func (e *Expr) String() string {
	switch e.op {
	case opVar:
		return e.name
	case opTrue:
		return "⊤"
	case opFalse:
		return "⊥"
	case opNot:
		return "¬" + e.kids[0].String()
	case opAnd, opOr:
		sep := " ∧ "
		if e.op == opOr {
			sep = " ∨ "
		}
		parts := make([]string, len(e.kids))
		for i, k := range e.kids {
			parts[i] = k.String()
		}
		return "(" + strings.Join(parts, sep) + ")"
	}
	return "?"
}

// Mode selects how a Solver discharges Check calls.
type Mode int

const (
	// ModeIncremental keeps one warm CDCL instance across the whole query
	// sequence — learnt clauses, activities and phases carry over (the
	// default, and the fast path).
	ModeIncremental Mode = iota
	// ModeCheck answers from the warm instance but also replays every
	// Check on a fresh reference instance — the recorded CNF in a
	// brand-new CDCL solver, with no learnt clauses, phases or trail —
	// and counts verdict mismatches (self-check; see SelfCheckStats).
	// Budget-aborted calls on either side are not compared — warm and
	// cold searches legitimately exhaust a budget at different points.
	ModeCheck
)

func (m Mode) String() string {
	if m == ModeCheck {
		return "check"
	}
	return "incremental"
}

// ParseMode parses a -solver flag value.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "incremental", "":
		return ModeIncremental, nil
	case "check":
		return ModeCheck, nil
	}
	return ModeIncremental, fmt.Errorf("smt: unknown solver mode %q (want incremental or check)", name)
}

// Solver wraps a sat.Solver with formula-level assertions.
type Solver struct {
	sat     *sat.Solver
	mode    Mode
	vars    map[string]*Expr
	lits    map[*Expr]sat.Lit
	trueE   *Expr
	falseE  *Expr
	trueLit sat.Lit
	gates   int64 // And/Or gates requested
	// assumption literal bookkeeping for FailedAssumptions
	assumed map[sat.Lit]*Expr
	// check mode state: every AddClause is logged so a reference solver
	// can be rebuilt from scratch.
	clauseLog      [][]sat.Lit
	budget         sat.Budget
	selfChecks     int64
	selfMismatches int64
	// Model cache: the last Sat model, extendable over gates defined since
	// by circuit evaluation (Tseitin definitions pin each gate variable to
	// exactly the value of its operator over its children, so the extension
	// satisfies every definitional clause by construction). A query whose
	// assumptions hold under the extended model is Sat with an exhibited
	// model — no search. Invalidated by user-level constraints (Assert,
	// AssertClause, AtMostK), which can make the cached model a non-model.
	gateDefs    []gateDef
	cachedModel []bool
	modelOK     bool
	modelVars   int // NumVars when the cache was committed
	modelGates  int // gateDefs reflected in cachedModel
	fromCache   bool
	modelHits   int64
}

// gateDef records one Tseitin gate (in creation order, which is
// topological: children are encoded before parents) so the model cache can
// evaluate gates defined after the last capture.
type gateDef struct {
	v    sat.Lit // the defining literal (always positive)
	and  bool    // conjunction gate (else disjunction)
	kids []sat.Lit
}

// NewSolver returns an empty solver in ModeIncremental.
func NewSolver() *Solver { return NewSolverMode(ModeIncremental) }

// NewSolverMode returns an empty solver with the given Check mode.
func NewSolverMode(mode Mode) *Solver {
	s := &Solver{
		sat:  sat.New(),
		mode: mode,
		vars: make(map[string]*Expr),
		lits: make(map[*Expr]sat.Lit),
	}
	s.trueE = &Expr{op: opTrue}
	s.falseE = &Expr{op: opFalse}
	tv := s.sat.NewVar()
	s.trueLit = sat.Lit(tv)
	s.addClause(s.trueLit)
	return s
}

// Mode returns the solver's Check mode.
func (s *Solver) Mode() Mode { return s.mode }

// addClause funnels every CNF clause into the warm instance and, when a
// reference replica may be needed, into the replay log. sat.AddClause
// sorts its argument slice in place, so the log keeps its own copy.
func (s *Solver) addClause(lits ...sat.Lit) bool {
	if s.mode == ModeCheck {
		s.clauseLog = append(s.clauseLog, append([]sat.Lit(nil), lits...))
	}
	return s.sat.AddClause(lits...)
}

// True and False return the boolean constants.
func (s *Solver) True() *Expr { return s.trueE }

// False returns the constant false formula.
func (s *Solver) False() *Expr { return s.falseE }

// Var returns the variable with the given name, creating it on first use.
func (s *Solver) Var(name string) *Expr {
	if e, ok := s.vars[name]; ok {
		return e
	}
	e := &Expr{op: opVar, name: name, v: s.sat.NewVar()}
	s.vars[name] = e
	return e
}

// FreshVar allocates an anonymous variable with a unique generated name.
func (s *Solver) FreshVar(prefix string) *Expr {
	return s.Var(fmt.Sprintf("%s!%d", prefix, s.sat.NumVars()))
}

// NumVars returns the number of underlying SAT variables.
func (s *Solver) NumVars() int { return s.sat.NumVars() }

// NumClauses returns the number of CNF clauses generated so far.
func (s *Solver) NumClauses() int { return s.sat.NumClauses() }

// And returns the conjunction of es (True if empty).
func And(es ...*Expr) *Expr {
	flat := flatten(opAnd, es)
	switch len(flat) {
	case 0:
		return nil // resolved by solver at Tseitin time: nil means True in And context
	case 1:
		return flat[0]
	}
	return &Expr{op: opAnd, kids: flat}
}

// Or returns the disjunction of es (False if empty).
func Or(es ...*Expr) *Expr {
	flat := flatten(opOr, es)
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	}
	return &Expr{op: opOr, kids: flat}
}

func flatten(o op, es []*Expr) []*Expr {
	var out []*Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if e.op == o {
			out = append(out, e.kids...)
			continue
		}
		out = append(out, e)
	}
	return out
}

// Not returns the negation of e.
func Not(e *Expr) *Expr {
	if e.op == opNot {
		return e.kids[0]
	}
	return &Expr{op: opNot, kids: []*Expr{e}}
}

// Implies returns a → b.
func Implies(a, b *Expr) *Expr { return Or(Not(a), b) }

// Iff returns a ↔ b.
func Iff(a, b *Expr) *Expr {
	return And(Implies(a, b), Implies(b, a))
}

// Xor returns a ⊕ b.
func Xor(a, b *Expr) *Expr {
	return Or(And(a, Not(b)), And(Not(a), b))
}

// lit Tseitin-transforms e and returns its defining literal. Results are
// memoized per node, so a shared subformula encodes once.
func (s *Solver) lit(e *Expr) sat.Lit {
	if e == nil {
		return s.trueLit
	}
	if l, ok := s.lits[e]; ok {
		return l
	}
	var l sat.Lit
	switch e.op {
	case opVar:
		l = sat.Lit(e.v)
	case opTrue:
		l = s.trueLit
	case opFalse:
		l = s.trueLit.Neg()
	case opNot:
		l = s.lit(e.kids[0]).Neg()
	case opAnd, opOr:
		kids := make([]sat.Lit, len(e.kids))
		for i, k := range e.kids {
			kids[i] = s.lit(k)
		}
		l = s.gate(e.op, kids)
	}
	s.lits[e] = l
	return l
}

// gate returns the defining literal of an And/Or over child literals. The
// child set is canonicalized first (sorted, deduplicated, constants and
// complementary pairs folded — sound because ∧/∨ are commutative and
// idempotent); what remains gets a fresh auxiliary variable and its
// Tseitin definition.
func (s *Solver) gate(o op, kids []sat.Lit) sat.Lit {
	s.gates++
	slices.SortFunc(kids, func(x, y sat.Lit) int {
		if c := cmp.Compare(x.Var(), y.Var()); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	tru, fls := s.trueLit, s.trueLit.Neg()
	out := kids[:0]
	for _, l := range kids {
		if o == opAnd {
			if l == tru {
				continue // neutral element
			}
			if l == fls {
				return fls // absorbing element
			}
		} else {
			if l == fls {
				continue
			}
			if l == tru {
				return tru
			}
		}
		if len(out) > 0 && out[len(out)-1] == l {
			continue // duplicate (idempotence)
		}
		if len(out) > 0 && out[len(out)-1] == l.Neg() {
			// l and ¬l are adjacent after the var-major sort: x ∧ ¬x = ⊥,
			// x ∨ ¬x = ⊤.
			if o == opAnd {
				return fls
			}
			return tru
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		if o == opAnd {
			return tru
		}
		return fls
	case 1:
		return out[0]
	}
	v := sat.Lit(s.sat.NewVar())
	all := make([]sat.Lit, 0, len(out)+1)
	if o == opAnd {
		for _, kl := range out {
			s.addClause(v.Neg(), kl) // v → k
			all = append(all, kl.Neg())
		}
		all = append(all, v) // (∧k) → v
	} else {
		for _, kl := range out {
			s.addClause(v, kl.Neg()) // k → v
			all = append(all, kl)
		}
		all = append(all, v.Neg()) // v → ∨k
	}
	s.addClause(all...)
	s.gateDefs = append(s.gateDefs, gateDef{v: v, and: o == opAnd, kids: out})
	return v
}

// invalidate drops the model cache, which a user-level constraint can
// poison: the cached assignment may violate the new clause.
func (s *Solver) invalidate() { s.modelOK = false }

// Assert adds e as a hard constraint. A top-level conjunction asserts
// each conjunct, and a top-level disjunction becomes one clause over its
// disjuncts' literals: no gate variable is defined for either, and the
// result is equivalent over every named variable to asserting e's gate.
func (s *Solver) Assert(e *Expr) {
	s.invalidate()
	s.assert(e)
}

func (s *Solver) assert(e *Expr) {
	switch {
	case e != nil && e.op == opAnd:
		for _, k := range e.kids {
			s.assert(k)
		}
	case e != nil && e.op == opOr:
		s.clause(e.kids)
	default:
		s.addClause(s.lit(e))
	}
}

// AssertClause adds a disjunction of formulas as one CNF clause, as
// Assert(Or(es...)) does.
func (s *Solver) AssertClause(es ...*Expr) {
	s.invalidate()
	s.clause(es)
}

// clause adds the disjunction of es' literals as one CNF clause.
func (s *Solver) clause(es []*Expr) {
	lits := make([]sat.Lit, len(es))
	for i, e := range es {
		lits[i] = s.lit(e)
	}
	s.addClause(lits...)
}

// Check determines satisfiability of the asserted formulas under the given
// assumptions.
func (s *Solver) Check(assumptions ...*Expr) sat.Status {
	return s.CheckCtx(context.Background(), assumptions...)
}

// CheckCtx is Check under a context: long-running solver queries return
// sat.Unknown promptly once ctx is cancelled, leaving the solver usable.
func (s *Solver) CheckCtx(ctx context.Context, assumptions ...*Expr) sat.Status {
	return s.solve(ctx, s.assume(assumptions))
}

// solve discharges one query on the warm instance, from the model cache
// when it can. Check mode then replays the query on a fresh reference —
// cache answers included, since it distrusts the whole incremental stack.
func (s *Solver) solve(ctx context.Context, lits []sat.Lit) sat.Status {
	s.fromCache = s.tryModel(lits)
	st := sat.Sat
	if !s.fromCache {
		st = s.sat.SolveCtx(ctx, lits...)
		if st == sat.Sat {
			s.captureModel()
		}
	}
	if s.mode == ModeCheck {
		s.record(st, s.freshReplica().SolveCtx(ctx, lits...))
	}
	return st
}

// record tallies one check-mode comparison. Budget-aborted sides are not
// compared — warm and cold searches legitimately exhaust budgets at
// different points.
func (s *Solver) record(st, rst sat.Status) {
	if st == sat.Unknown || rst == sat.Unknown {
		return
	}
	s.selfChecks++
	if st != rst {
		s.selfMismatches++
	}
}

// tryModel attempts to answer a query from the model cache: the cached
// model is extended over gates defined since the last capture (circuit
// evaluation in creation order — children precede parents), fresh free
// atoms named by the assumptions are set to satisfy them, and the query is
// Sat if every assumption literal holds under the extension. A miss
// mutates only entries above modelVars, which the next attempt recomputes,
// so failed tries never corrupt the committed model.
func (s *Solver) tryModel(lits []sat.Lit) bool {
	if !s.modelOK {
		return false
	}
	// Variables are 1-based: index NumVars is the newest variable.
	n := s.sat.NumVars()
	for len(s.cachedModel) <= n {
		s.cachedModel = append(s.cachedModel, false)
	}
	ext := s.cachedModel
	pending := s.gateDefs[s.modelGates:]
	var isGate map[int]bool
	if len(pending) > 0 {
		isGate = make(map[int]bool, len(pending))
		for _, g := range pending {
			isGate[g.v.Var()] = true
		}
	}
	// Free atoms created since the capture are unconstrained outside the
	// pending gate definitions: set the ones the assumptions name so they
	// hold. (Contradictory assumptions on one atom leave the earlier
	// literal false and miss below — sound.)
	for _, l := range lits {
		if v := l.Var(); v > s.modelVars && !isGate[v] {
			ext[v] = l.Sign()
		}
	}
	for _, g := range pending {
		val := g.and
		for _, kl := range g.kids {
			kv := ext[kl.Var()] == kl.Sign()
			if g.and {
				val = val && kv
			} else {
				val = val || kv
			}
			if kv != g.and {
				break // absorbing element found
			}
		}
		ext[g.v.Var()] = val
	}
	for _, l := range lits {
		if ext[l.Var()] != l.Sign() {
			return false
		}
	}
	s.modelVars, s.modelGates = n, len(s.gateDefs)
	s.modelHits++
	return true
}

// captureModel snapshots the warm instance's model after a Sat solve so
// the cache can serve later queries.
func (s *Solver) captureModel() {
	n := s.sat.NumVars()
	for len(s.cachedModel) <= n {
		s.cachedModel = append(s.cachedModel, false)
	}
	for v := 1; v <= n; v++ {
		s.cachedModel[v] = s.sat.Value(v)
	}
	s.modelOK, s.modelVars, s.modelGates = true, n, len(s.gateDefs)
}

// freshReplica rebuilds the current CNF in a brand-new CDCL instance: same
// variables, same clauses in insertion order, same budget — but no learnt
// clauses, no saved phases, no warm trail. It is the non-incremental
// reference the equivalence battery and ModeCheck compare against.
func (s *Solver) freshReplica() *sat.Solver {
	ref := sat.New()
	for ref.NumVars() < s.sat.NumVars() {
		ref.NewVar()
	}
	ref.SetBudget(s.budget)
	var buf []sat.Lit
	for _, c := range s.clauseLog {
		// AddClause sorts its argument in place; keep the log pristine.
		buf = append(buf[:0], c...)
		if !ref.AddClause(buf...) {
			break
		}
	}
	return ref
}

// assume encodes the assumption formulas and records the literal → formula
// mapping FailedAssumptions reads back.
func (s *Solver) assume(assumptions []*Expr) []sat.Lit {
	lits := make([]sat.Lit, len(assumptions))
	s.assumed = make(map[sat.Lit]*Expr, len(assumptions))
	for i, a := range assumptions {
		lits[i] = s.lit(a)
		s.assumed[lits[i]] = a
	}
	return lits
}

// SetBudget bounds every subsequent solve call's search effort (see
// sat.Budget). Budget-aborted calls return sat.Unknown and leave the
// solver usable, so a later unbudgeted Check recomputes honestly.
// Fresh reference replicas inherit the same per-call budget.
func (s *Solver) SetBudget(b sat.Budget) {
	s.budget = b
	s.sat.SetBudget(b)
}

// AbortCause classifies the last Unknown verdict: faults.ErrBudget for an
// exhausted effort budget, faults.ErrDeadline / faults.ErrCanceled for a
// fired context, nil after a decided call.
func (s *Solver) AbortCause() error {
	if s.fromCache {
		return nil // cache answers are decided, never aborted
	}
	return s.sat.AbortCause()
}

// SatStats returns the warm CDCL instance's search-effort counters
// (decisions, propagations, conflicts, restarts).
func (s *Solver) SatStats() (decisions, propagations, conflicts, restarts int64) {
	return s.sat.Counters()
}

// EncodeStats returns the number of And/Or Tseitin gates requested.
func (s *Solver) EncodeStats() (gates int64) { return s.gates }

// SelfCheckStats returns, for ModeCheck, the number of Check calls whose
// verdict was replayed on a fresh reference replica and how many of those
// disagreed (always 0 unless the incremental path is unsound).
func (s *Solver) SelfCheckStats() (checks, mismatches int64) {
	return s.selfChecks, s.selfMismatches
}

// ModelCacheHits returns how many queries were answered Sat by extending
// the cached model over newly defined gates, without any solver search.
func (s *Solver) ModelCacheHits() int64 { return s.modelHits }

// FailedAssumptions returns the assumption formulas involved in the last
// Unsat verdict.
func (s *Solver) FailedAssumptions() []*Expr {
	var out []*Expr
	for _, l := range s.sat.FailedAssumptions() {
		if e, ok := s.assumed[l]; ok {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Value evaluates e under the current model (valid after a Sat result).
func (s *Solver) Value(e *Expr) bool {
	switch e.op {
	case opTrue:
		return true
	case opFalse:
		return false
	case opVar:
		if s.fromCache {
			return e.v < len(s.cachedModel) && s.cachedModel[e.v]
		}
		return s.sat.Value(e.v)
	case opNot:
		return !s.Value(e.kids[0])
	case opAnd:
		for _, k := range e.kids {
			if !s.Value(k) {
				return false
			}
		}
		return true
	case opOr:
		for _, k := range e.kids {
			if s.Value(k) {
				return true
			}
		}
		return false
	}
	return false
}

// AtMostK asserts that at most k of es are true, using the sequential
// counter encoding (Sinz 2005).
func (s *Solver) AtMostK(k int, es ...*Expr) {
	n := len(es)
	if k >= n {
		return
	}
	s.invalidate()
	if k < 0 {
		s.Assert(s.False())
		return
	}
	if k == 0 {
		for _, e := range es {
			s.Assert(Not(e))
		}
		return
	}
	lits := make([]sat.Lit, n)
	for i, e := range es {
		lits[i] = s.lit(e)
	}
	// r[i][j]: among es[0..i], at least j+1 are true.
	r := make([][]sat.Lit, n)
	for i := range r {
		r[i] = make([]sat.Lit, k)
		for j := range r[i] {
			r[i][j] = sat.Lit(s.sat.NewVar())
		}
	}
	s.addClause(lits[0].Neg(), r[0][0])
	for j := 1; j < k; j++ {
		s.addClause(r[0][j].Neg())
	}
	for i := 1; i < n; i++ {
		s.addClause(lits[i].Neg(), r[i][0])
		s.addClause(r[i-1][0].Neg(), r[i][0])
		for j := 1; j < k; j++ {
			s.addClause(lits[i].Neg(), r[i-1][j-1].Neg(), r[i][j])
			s.addClause(r[i-1][j].Neg(), r[i][j])
		}
		s.addClause(lits[i].Neg(), r[i-1][k-1].Neg())
	}
}

// AtLeastOne asserts that at least one of es is true.
func (s *Solver) AtLeastOne(es ...*Expr) {
	s.AssertClause(es...)
}

// ExactlyOne asserts that exactly one of es is true.
func (s *Solver) ExactlyOne(es ...*Expr) {
	s.AtLeastOne(es...)
	s.AtMostK(1, es...)
}
