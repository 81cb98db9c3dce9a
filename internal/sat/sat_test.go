package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrivialSat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(Lit(a))
	if s.Solve() != Sat {
		t.Fatal("unsat")
	}
	if !s.Value(a) {
		t.Error("model: a should be true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(Lit(a))
	if ok := s.AddClause(Lit(-a)); ok {
		t.Error("AddClause should report top-level contradiction")
	}
	if s.Solve() != Unsat {
		t.Fatal("expected unsat")
	}
}

func TestUnitPropagationChain(t *testing.T) {
	// a, a→b, b→c, c→d: all forced true.
	s := New()
	a, b, c, d := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(Lit(a))
	s.AddClause(Lit(-a), Lit(b))
	s.AddClause(Lit(-b), Lit(c))
	s.AddClause(Lit(-c), Lit(d))
	if s.Solve() != Sat {
		t.Fatal("unsat")
	}
	for _, v := range []int{a, b, c, d} {
		if !s.Value(v) {
			t.Errorf("var %d should be true", v)
		}
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	s.NewVar()
	if s.AddClause() {
		t.Error("empty clause accepted")
	}
	if s.Solve() != Unsat {
		t.Error("expected unsat")
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(Lit(a), Lit(-a)) {
		t.Error("tautology rejected")
	}
	if s.NumClauses() != 0 {
		t.Error("tautology stored")
	}
	if s.Solve() != Sat {
		t.Error("unsat")
	}
}

func TestXorChain(t *testing.T) {
	// x1 ⊕ x2 = 1, x2 ⊕ x3 = 1, x1 = x3 forced; add x1 ≠ x3 → unsat.
	s := New()
	x1, x2, x3 := s.NewVar(), s.NewVar(), s.NewVar()
	addXor := func(a, b int, val bool) {
		if val {
			s.AddClause(Lit(a), Lit(b))
			s.AddClause(Lit(-a), Lit(-b))
		} else {
			s.AddClause(Lit(-a), Lit(b))
			s.AddClause(Lit(a), Lit(-b))
		}
	}
	addXor(x1, x2, true)
	addXor(x2, x3, true)
	addXor(x1, x3, false) // consistent: x1 == x3
	if s.Solve() != Sat {
		t.Fatal("consistent xor system unsat")
	}
	addXor(x1, x3, true) // now contradictory
	if s.Solve() != Unsat {
		t.Fatal("contradictory xor system sat")
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons in n holes — classically
// unsat and a good stress test for clause learning.
func pigeonhole(t *testing.T, pigeons, holes int) Status {
	t.Helper()
	s := New()
	p := make([][]int, pigeons)
	for i := range p {
		p[i] = make([]int, holes)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	// Every pigeon in some hole.
	for i := 0; i < pigeons; i++ {
		lits := make([]Lit, holes)
		for j := 0; j < holes; j++ {
			lits[j] = Lit(p[i][j])
		}
		s.AddClause(lits...)
	}
	// No two pigeons share a hole.
	for j := 0; j < holes; j++ {
		for i1 := 0; i1 < pigeons; i1++ {
			for i2 := i1 + 1; i2 < pigeons; i2++ {
				s.AddClause(Lit(-p[i1][j]), Lit(-p[i2][j]))
			}
		}
	}
	return s.Solve()
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		if got := pigeonhole(t, n+1, n); got != Unsat {
			t.Errorf("PHP(%d,%d) = %v, want unsat", n+1, n, got)
		}
	}
}

func TestPigeonholeSatWhenEnoughHoles(t *testing.T) {
	if got := pigeonhole(t, 5, 5); got != Sat {
		t.Errorf("PHP(5,5) = %v, want sat", got)
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(Lit(-a), Lit(b)) // a → b
	if s.Solve(Lit(a), Lit(-b)) != Unsat {
		t.Fatal("a ∧ ¬b ∧ (a→b) should be unsat")
	}
	core := s.FailedAssumptions()
	if len(core) == 0 {
		t.Fatal("empty failed-assumption set")
	}
	// Solver remains usable and Sat without assumptions.
	if s.Solve() != Sat {
		t.Fatal("solver not reusable after assumption conflict")
	}
	if s.Solve(Lit(a)) != Sat {
		t.Fatal("a alone should be sat")
	}
	if !s.Value(a) || !s.Value(b) {
		t.Error("model violates a→b under assumption a")
	}
}

func TestIncrementalAddBetweenSolves(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(Lit(a), Lit(b))
	if s.Solve() != Sat {
		t.Fatal("unsat")
	}
	s.AddClause(Lit(-a))
	s.AddClause(Lit(-b), Lit(c))
	if s.Solve() != Sat {
		t.Fatal("unsat after increment")
	}
	if s.Value(a) || !s.Value(b) || !s.Value(c) {
		t.Error("model wrong after incremental additions")
	}
	s.AddClause(Lit(-c))
	if s.Solve() != Unsat {
		t.Fatal("expected unsat after closing the chain")
	}
}

// brute checks satisfiability by exhaustive enumeration (≤ 20 vars).
func brute(nVars int, clauses [][]Lit) bool {
	for m := 0; m < 1<<nVars; m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				val := m&(1<<(l.Var()-1)) != 0
				if val == l.Sign() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// Property: CDCL agrees with brute force on random 3-SAT instances, and on
// Sat the returned model satisfies every clause.
func TestQuickRandom3SATAgainstBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 4 + rng.Intn(8)
		nClauses := 5 + rng.Intn(30)
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		var clauses [][]Lit
		for i := 0; i < nClauses; i++ {
			var c []Lit
			width := 1 + rng.Intn(3)
			for k := 0; k < width; k++ {
				v := 1 + rng.Intn(nVars)
				l := Lit(v)
				if rng.Intn(2) == 0 {
					l = -l
				}
				c = append(c, l)
			}
			clauses = append(clauses, c)
			s.AddClause(c...)
		}
		got := s.Solve()
		want := brute(nVars, clauses)
		if (got == Sat) != want {
			return false
		}
		if got == Sat {
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					if s.Value(l.Var()) == l.Sign() {
						sat = true
					}
				}
				if !sat {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGraphColoring(t *testing.T) {
	// K4 is 4-colorable but not 3-colorable.
	edges := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	color := func(k int) Status {
		s := New()
		v := make([][]int, 4)
		for i := range v {
			v[i] = make([]int, k)
			for j := range v[i] {
				v[i][j] = s.NewVar()
			}
			lits := make([]Lit, k)
			for j := range v[i] {
				lits[j] = Lit(v[i][j])
			}
			s.AddClause(lits...)
		}
		for _, e := range edges {
			for j := 0; j < k; j++ {
				s.AddClause(Lit(-v[e[0]][j]), Lit(-v[e[1]][j]))
			}
		}
		return s.Solve()
	}
	if color(3) != Unsat {
		t.Error("K4 3-colored")
	}
	if color(4) != Sat {
		t.Error("K4 not 4-colorable")
	}
}

func TestStatsAndAccessors(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(Lit(a), Lit(b))
	s.AddClause(Lit(-a), Lit(b))
	if s.NumVars() != 2 || s.NumClauses() != 2 {
		t.Errorf("NumVars/NumClauses = %d/%d", s.NumVars(), s.NumClauses())
	}
	if s.Value(a) || s.Value(b) {
		t.Error("Value before the first Sat must read false")
	}
	if s.Solve() != Sat {
		t.Fatal("unsat")
	}
	if !s.Value(b) {
		t.Errorf("Value(%d) = false, want true (forced by both clauses)", b)
	}
	if fresh := s.NewVar(); s.Value(0) || s.Value(fresh) {
		t.Error("Value of a variable outside the last model must read false")
	}
	d, p, c, r := s.Counters()
	if d < 0 || p < 0 || c < 0 || r < 0 {
		t.Error("counters negative")
	}
	if Sat.String() != "sat" || Unsat.String() != "unsat" || Unknown.String() != "unknown" {
		t.Error("status strings")
	}
}

func TestLitHelpers(t *testing.T) {
	l := Lit(5)
	if l.Var() != 5 || !l.Sign() || l.Neg() != Lit(-5) || l.Neg().Var() != 5 || l.Neg().Sign() {
		t.Error("Lit helpers broken")
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestAddClausePanicsOnBadLit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := New()
	s.AddClause(Lit(1)) // var 1 not allocated
}

func TestManyAssumptionLevels(t *testing.T) {
	// Assumptions that are already implied (empty decision levels) must
	// not confuse the solver.
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(Lit(a))
	s.AddClause(Lit(-a), Lit(b))
	if s.Solve(Lit(a), Lit(b), Lit(c)) != Sat {
		t.Fatal("unsat")
	}
	if !s.Value(c) {
		t.Error("assumption c not honored")
	}
}
