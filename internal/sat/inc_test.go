package sat

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lcm/internal/faults"
)

// This file is the incremental leg of the solver-equivalence battery: the
// DPLL oracle of ref_test.go is extended from single calls to *sequences*
// of assumption-set solves interleaved with clause additions, exactly the
// shape the detection engines drive (one warm solver per function, many
// candidate queries sharing assumption prefixes). Every verdict in a
// sequence must match a from-scratch reference decision of the same
// formula under the same assumptions; learnt clauses, activities and phase
// saving may only change effort, never answers.

// refDecide is the reference verdict for clauses under assumptions: the
// assumptions are appended as unit clauses and the whole formula is
// decided by DPLL from scratch.
func refDecide(nVars int, clauses [][]Lit, assumptions []Lit) bool {
	all := append([][]Lit{}, clauses...)
	for _, a := range assumptions {
		all = append(all, []Lit{a})
	}
	return refSolve(nVars, all)
}

// randomAssumptions draws n distinct-variable assumption literals.
func randomAssumptions(rng *rand.Rand, nVars, n int) []Lit {
	seen := map[int]bool{}
	var out []Lit
	for len(out) < n {
		v := 1 + rng.Intn(nVars)
		if seen[v] {
			continue
		}
		seen[v] = true
		l := Lit(v)
		if rng.Intn(2) == 0 {
			l = -l
		}
		out = append(out, l)
	}
	return out
}

// TestDifferentialIncrementalSequences runs seeded random *query
// sequences* on one warm solver — assumption sets that share prefixes with
// their predecessor, plus occasional clause additions mid-sequence — and
// cross-checks every verdict against the DPLL reference solving from
// scratch. This is the property the per-function candidate sweep relies
// on: a warm solver is verdict-equivalent to a fresh one at every step.
// Every Unsat step must also leave a failed-assumption core drawn from
// that step's assumptions, non-empty whenever the formula alone is
// satisfiable, and itself unsatisfiable with the formula.
func TestDifferentialIncrementalSequences(t *testing.T) {
	const instances = 300
	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < instances; i++ {
		nVars := 4 + rng.Intn(9)              // 4..12
		nClauses := nVars * (2 + rng.Intn(3)) // ratios 2..4
		clauses := randomCNF(rng, nVars, nClauses)

		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		dead := false // AddClause found top-level unsat
		for _, c := range clauses {
			if !s.AddClause(append([]Lit(nil), c...)...) {
				dead = true
				break
			}
		}
		if dead {
			if refSolve(nVars, clauses) {
				t.Fatalf("instance %d: AddClause says unsat, reference says sat", i)
			}
			continue
		}

		var prev []Lit
		for step, steps := 0, 4+rng.Intn(6); step < steps; step++ {
			// Mutate the assumption set: keep a random prefix of the
			// previous one (biasing toward long shared prefixes, the shape
			// the candidate loops produce) and append a fresh tail.
			keep := 0
			if len(prev) > 0 {
				keep = rng.Intn(len(prev) + 1)
			}
			assumptions := append([]Lit(nil), prev[:keep]...)
			assumptions = append(assumptions, randomAssumptions(rng, nVars, 1+rng.Intn(3))...)
			prev = assumptions

			want := refDecide(nVars, clauses, assumptions)
			got := s.Solve(assumptions...)
			tag := fmt.Sprintf("instance %d step %d assumptions=%v", i, step, assumptions)
			if got == Unknown {
				t.Fatalf("%s: unexpected Unknown", tag)
			}
			if (got == Sat) != want {
				t.Fatalf("%s: warm solver=%v reference=%v", tag, got, want)
			}
			if got == Sat {
				withUnits := append([][]Lit{}, clauses...)
				for _, a := range assumptions {
					withUnits = append(withUnits, []Lit{a})
				}
				checkModel(t, s, withUnits, tag)
			}
			if got == Unsat {
				checkCore(t, s, nVars, clauses, assumptions, tag)
			}

			// Occasionally grow the formula mid-sequence, as the lazy
			// window encoding does between candidate queries.
			if rng.Intn(3) == 0 {
				extra := randomCNF(rng, nVars, 1)[0]
				clauses = append(clauses, extra)
				if !s.AddClause(append([]Lit(nil), extra...)...) {
					if refSolve(nVars, clauses) {
						t.Fatalf("instance %d step %d: AddClause says unsat, reference says sat", i, step)
					}
					break
				}
			}
		}
	}
}

// checkCore validates the failed-assumption core of an Unsat step.
func checkCore(t *testing.T, s *Solver, nVars int, clauses [][]Lit, assumptions []Lit, tag string) {
	t.Helper()
	core := s.FailedAssumptions()
	in := map[Lit]bool{}
	for _, a := range assumptions {
		in[a] = true
	}
	for _, l := range core {
		if !in[l] {
			t.Fatalf("%s: failed assumption %d is not one of the step's assumptions", tag, l)
		}
	}
	if len(core) == 0 && refSolve(nVars, clauses) {
		t.Fatalf("%s: empty failed-assumption core, but the formula alone is satisfiable", tag)
	}
	if refDecide(nVars, clauses, core) {
		t.Fatalf("%s: failed-assumption core %v is satisfiable with the formula", tag, core)
	}
}

// TestPhaseSavingAcrossCalls pins that the last assigned polarity of a
// variable survives into the next call's branching, the cheap form of
// warm-start the candidate sweep leans on.
func TestPhaseSavingAcrossCalls(t *testing.T) {
	s := New()
	v := s.NewVar()
	// Default phase is false.
	if st := s.Solve(); st != Sat || s.Value(v) {
		t.Fatalf("default-phase solve: st=%v value=%v, want Sat/false", st, s.Value(v))
	}
	// Force the variable true under an assumption; the retract must save
	// the polarity.
	if st := s.Solve(Lit(v)); st != Sat || !s.Value(v) {
		t.Fatalf("assumption solve: st=%v value=%v, want Sat/true", st, s.Value(v))
	}
	// A free solve now branches on the saved phase: true.
	if st := s.Solve(); st != Sat || !s.Value(v) {
		t.Fatalf("phase-saved solve: st=%v value=%v, want Sat/true", st, s.Value(v))
	}
}

// TestBudgetPerCallBaselineAcrossWarmSweep pins that every SolveCtx call
// of a warm assumption sweep gets its own effort budget measured from its
// own baseline — warm state must not pre-charge later calls — and that
// abort classification is unchanged on the incremental path.
func TestBudgetPerCallBaselineAcrossWarmSweep(t *testing.T) {
	s := New()
	encodePigeonhole(s, 9, 8)
	// Free selector variables: assumption prefixes without constraining
	// the pigeonhole core.
	a1, a2, a3 := Lit(s.NewVar()), Lit(s.NewVar()), Lit(s.NewVar())
	s.SetBudget(Budget{Conflicts: 50})

	sweep := [][]Lit{{a1}, {a1, a2}, {a1, a2, a3}}
	prevConflicts := int64(0)
	for i, assumptions := range sweep {
		st := s.SolveCtx(context.Background(), assumptions...)
		if st != Unknown {
			t.Fatalf("sweep call %d = %v, want Unknown under a 50-conflict budget", i, st)
		}
		if cause := s.AbortCause(); !errors.Is(cause, faults.ErrBudget) {
			t.Fatalf("sweep call %d AbortCause = %v, want faults.ErrBudget", i, cause)
		}
		_, _, conflicts, _ := s.Counters()
		if spent := conflicts - prevConflicts; spent < 50 {
			t.Fatalf("sweep call %d spent %d conflicts, want ≥ 50 (budget must reset per call)", i, spent)
		}
		prevConflicts = conflicts
	}

	// Decisions leg: same per-call-baseline contract.
	s.SetBudget(Budget{Decisions: 10})
	prevDecisions, _, _, _ := s.Counters()
	for i, assumptions := range sweep {
		if st := s.SolveCtx(context.Background(), assumptions...); st != Unknown {
			t.Fatalf("decision sweep call %d = %v, want Unknown", i, st)
		}
		if cause := s.AbortCause(); !errors.Is(cause, faults.ErrBudget) {
			t.Fatalf("decision sweep call %d AbortCause = %v, want faults.ErrBudget", i, cause)
		}
		decisions, _, _, _ := s.Counters()
		if spent := decisions - prevDecisions; spent < 10 {
			t.Fatalf("decision sweep call %d spent %d decisions, want ≥ 10", i, spent)
		}
		prevDecisions = decisions
	}

	// Lifting the budget decides honestly from the warm state.
	s.SetBudget(Budget{})
	if st := s.SolveCtx(context.Background(), a1, a2); st != Unsat {
		t.Fatalf("unbudgeted warm solve = %v, want Unsat (PHP(9,8))", st)
	}
	if cause := s.AbortCause(); cause != nil {
		t.Fatalf("AbortCause = %v after a decided warm solve, want nil", cause)
	}
}
