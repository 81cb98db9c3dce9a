package smt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lcm/internal/sat"
)

func TestVarReuse(t *testing.T) {
	s := NewSolver()
	a1 := s.Var("a")
	a2 := s.Var("a")
	if a1 != a2 {
		t.Error("same name produced different vars")
	}
	if a1.Name() != "a" {
		t.Errorf("Name = %q", a1.Name())
	}
}

func TestBasicConnectives(t *testing.T) {
	s := NewSolver()
	a, b := s.Var("a"), s.Var("b")
	s.Assert(And(a, Not(b)))
	if s.Check() != sat.Sat {
		t.Fatal("unsat")
	}
	if !s.Value(a) || s.Value(b) {
		t.Error("model wrong")
	}
	if !s.Value(And(a, Not(b))) || s.Value(Or(b, Not(a))) {
		t.Error("Value evaluation wrong")
	}
}

func TestImpliesIffXor(t *testing.T) {
	s := NewSolver()
	a, b := s.Var("a"), s.Var("b")
	s.Assert(Implies(a, b))
	s.Assert(a)
	if s.Check() != sat.Sat {
		t.Fatal("unsat")
	}
	if !s.Value(b) {
		t.Error("modus ponens failed")
	}
	s.Assert(Iff(a, Not(b)))
	if s.Check() != sat.Unsat {
		t.Error("a ∧ b ∧ (a↔¬b) should be unsat")
	}
}

func TestConstants(t *testing.T) {
	s := NewSolver()
	s.Assert(s.True())
	if s.Check() != sat.Sat {
		t.Error("True unsat")
	}
	s.Assert(s.False())
	if s.Check() != sat.Unsat {
		t.Error("False sat")
	}
}

func TestSharedSubformulaEncodedOnce(t *testing.T) {
	s := NewSolver()
	a, b := s.Var("a"), s.Var("b")
	shared := And(a, b)
	s.Assert(Or(shared, Not(shared)))
	n := s.NumVars()
	s.Assert(Or(shared, s.Var("c")))
	// Only c should be new: shared is memoized.
	if s.NumVars() > n+2 { // c + Or auxiliary
		t.Errorf("subformula re-encoded: vars %d → %d", n, s.NumVars())
	}
}

func TestCheckAssumptions(t *testing.T) {
	s := NewSolver()
	a, b := s.Var("a"), s.Var("b")
	s.Assert(Implies(a, b))
	if s.Check(a, Not(b)) != sat.Unsat {
		t.Fatal("expected unsat under assumptions")
	}
	failed := s.FailedAssumptions()
	if len(failed) == 0 {
		t.Error("no failed assumptions")
	}
	if s.Check(a) != sat.Sat {
		t.Fatal("solver unusable after assumption conflict")
	}
	if !s.Value(b) {
		t.Error("implication not honored")
	}
}

func TestFlattening(t *testing.T) {
	s := NewSolver()
	a, b, c := s.Var("a"), s.Var("b"), s.Var("c")
	e := And(And(a, b), c)
	if len(e.kids) != 3 {
		t.Errorf("nested And not flattened: %v", e)
	}
	o := Or(Or(a, b), c)
	if len(o.kids) != 3 {
		t.Errorf("nested Or not flattened: %v", o)
	}
	if Not(Not(a)) != a {
		t.Error("double negation not eliminated")
	}
	if And(a) != a || Or(a) != a {
		t.Error("singleton connective not collapsed")
	}
}

func TestString(t *testing.T) {
	s := NewSolver()
	a, b := s.Var("a"), s.Var("b")
	e := And(a, Not(b))
	if e.String() != "(a ∧ ¬b)" {
		t.Errorf("String = %q", e.String())
	}
	if s.True().String() != "⊤" || s.False().String() != "⊥" {
		t.Error("constant strings")
	}
}

// evalTree evaluates a formula under an assignment map (reference
// implementation for the property test).
func evalTree(e *Expr, m map[string]bool) bool {
	switch e.op {
	case opVar:
		return m[e.name]
	case opTrue:
		return true
	case opFalse:
		return false
	case opNot:
		return !evalTree(e.kids[0], m)
	case opAnd:
		for _, k := range e.kids {
			if !evalTree(k, m) {
				return false
			}
		}
		return true
	case opOr:
		for _, k := range e.kids {
			if evalTree(k, m) {
				return true
			}
		}
		return false
	}
	return false
}

// randomExpr builds a random formula over nv variables.
func randomExpr(s *Solver, rng *rand.Rand, nv, depth int) *Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		return s.Var(string(rune('a' + rng.Intn(nv))))
	}
	switch rng.Intn(5) {
	case 4:
		return Iff(randomExpr(s, rng, nv, depth-1), randomExpr(s, rng, nv, depth-1))
	case 0:
		return Not(randomExpr(s, rng, nv, depth-1))
	case 1:
		return And(randomExpr(s, rng, nv, depth-1), randomExpr(s, rng, nv, depth-1))
	case 2:
		return Or(randomExpr(s, rng, nv, depth-1), randomExpr(s, rng, nv, depth-1))
	default:
		return Implies(randomExpr(s, rng, nv, depth-1), randomExpr(s, rng, nv, depth-1))
	}
}

// Property: Tseitin is equisatisfiable and the model satisfies the original
// formula per tree evaluation.
func TestQuickTseitinSound(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSolver()
		nv := 3
		e := randomExpr(s, rng, nv, 4)
		s.Assert(e)
		status := s.Check()
		// Reference: enumerate assignments.
		names := []string{"a", "b", "c"}
		satisfiable := false
		for m := 0; m < 1<<nv; m++ {
			asg := map[string]bool{}
			for i, n := range names {
				asg[n] = m&(1<<i) != 0
			}
			if evalTree(e, asg) {
				satisfiable = true
				break
			}
		}
		if (status == sat.Sat) != satisfiable {
			return false
		}
		if status == sat.Sat {
			asg := map[string]bool{}
			for _, n := range names {
				asg[n] = s.Value(s.Var(n))
			}
			return evalTree(e, asg)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// assertGate is the reference top-level assertion: define e's Tseitin gate
// and assert its unit literal.
func assertGate(s *Solver, e *Expr) {
	s.invalidate()
	s.addClause(s.lit(e))
}

// Property: the clausal Assert (a top-level Or as one clause, a top-level
// And conjunct by conjunct) and the gate-unit reference agree on every
// verdict under random assumptions, and every Sat model satisfies the
// asserted formulas and the assumptions by tree evaluation.
func TestClausalAssertMatchesGateAssert(t *testing.T) {
	const nv = 8
	names := make([]string, nv)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	// build draws the same formulas and assumption sets on either solver
	// for a given seed.
	build := func(s *Solver, seed int64) (asserted []*Expr, queries [][]*Expr) {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range names {
			s.Var(n)
		}
		for i := 1 + rng.Intn(4); i > 0; i-- {
			e := randomExpr(s, rng, nv, 5)
			if rng.Intn(3) == 0 {
				e = And(e, randomExpr(s, rng, nv, 4))
			}
			asserted = append(asserted, e)
		}
		for q := 0; q < 8; q++ {
			var as []*Expr
			for _, n := range names {
				switch rng.Intn(4) {
				case 0:
					as = append(as, s.Var(n))
				case 1:
					as = append(as, Not(s.Var(n)))
				}
			}
			if rng.Intn(4) == 0 {
				as = append(as, randomExpr(s, rng, nv, 3))
			}
			queries = append(queries, as)
		}
		return asserted, queries
	}
	holds := func(s *Solver, es []*Expr) bool {
		asg := map[string]bool{}
		for _, n := range names {
			asg[n] = s.Value(s.Var(n))
		}
		for _, e := range es {
			if !evalTree(e, asg) {
				return false
			}
		}
		return true
	}
	for seed := int64(0); seed < 400; seed++ {
		clausal, gated := NewSolver(), NewSolver()
		cf, cq := build(clausal, seed)
		gf, gq := build(gated, seed)
		for i := range cf {
			clausal.Assert(cf[i])
			assertGate(gated, gf[i])
		}
		for q := range cq {
			cs, gs := clausal.Check(cq[q]...), gated.Check(gq[q]...)
			if cs != gs {
				t.Fatalf("seed %d query %d: clausal %v, gate reference %v (asserted %v, assumed %v)",
					seed, q, cs, gs, cf, cq[q])
			}
			if cs != sat.Sat {
				continue
			}
			if !holds(clausal, cf) || !holds(clausal, cq[q]) {
				t.Fatalf("seed %d query %d: clausal model violates %v under %v", seed, q, cf, cq[q])
			}
			if !holds(gated, gf) || !holds(gated, gq[q]) {
				t.Fatalf("seed %d query %d: reference model violates %v under %v", seed, q, gf, gq[q])
			}
		}
	}
}
