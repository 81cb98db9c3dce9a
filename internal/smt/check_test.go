package smt

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"lcm/internal/faults"
	"lcm/internal/sat"
)

// TestModelCacheInvalidatedByAssert: a Sat query leaves its model in the
// cache; a new hard constraint the cached model violates must not let the
// cache answer the same query Sat again.
func TestModelCacheInvalidatedByAssert(t *testing.T) {
	s := NewSolver()
	a, b := s.Var("a"), s.Var("b")
	s.Assert(Or(a, b))

	ctx := context.Background()
	if st := s.CheckCtx(ctx, a); st != sat.Sat {
		t.Fatalf("status = %v, want Sat", st)
	}
	s.Assert(Not(a))
	if st := s.CheckCtx(ctx, a); st != sat.Unsat {
		t.Fatalf("status = %v, want Unsat after Assert(¬a)", st)
	}
}

// TestModelCacheInvalidatedByAtMostK: as above, for a cardinality
// constraint added after the model was cached.
func TestModelCacheInvalidatedByAtMostK(t *testing.T) {
	s := NewSolver()
	a, b, c := s.Var("a"), s.Var("b"), s.Var("c")
	ctx := context.Background()
	if st := s.CheckCtx(ctx, a, b, c); st != sat.Sat {
		t.Fatal("want Sat before cardinality constraint")
	}
	s.AtMostK(1, a, b, c)
	if st := s.CheckCtx(ctx, a, b, c); st != sat.Unsat {
		t.Fatalf("status = %v, want Unsat after AtMostK", st)
	}
}

// pigeonhole asserts PHP(pigeons, holes): every pigeon sits somewhere, no
// hole holds two. Unsat whenever pigeons > holes.
func pigeonhole(s *Solver, pigeons, holes int) {
	vars := make([][]*Expr, pigeons)
	for p := 0; p < pigeons; p++ {
		vars[p] = make([]*Expr, holes)
		for h := 0; h < holes; h++ {
			vars[p][h] = s.Var(fmt.Sprintf("p%dh%d", p, h))
		}
		s.Assert(Or(vars[p]...))
	}
	for h := 0; h < holes; h++ {
		col := make([]*Expr, pigeons)
		for p := 0; p < pigeons; p++ {
			col[p] = vars[p][h]
		}
		s.AtMostK(1, col...)
	}
}

// TestCheckCtxBudgetAbortThenRecheck: a budget-aborted query is Unknown
// with AbortCause ErrBudget, and a later, properly funded query on the
// same warm solver recomputes the honest verdict.
func TestCheckCtxBudgetAbortThenRecheck(t *testing.T) {
	s := NewSolver()
	// PHP(7,6) is hard enough that a 5-conflict budget cannot refute it.
	pigeonhole(s, 7, 6)

	ctx := context.Background()
	s.SetBudget(sat.Budget{Conflicts: 5})
	st := s.CheckCtx(ctx)
	if st != sat.Unknown {
		t.Skipf("PHP(7,6) resolved under a 5-conflict budget (status %v)", st)
	}
	if cause := s.AbortCause(); !errors.Is(cause, faults.ErrBudget) {
		t.Fatalf("AbortCause = %v, want faults.ErrBudget", cause)
	}
	s.SetBudget(sat.Budget{})
	if st := s.CheckCtx(ctx); st != sat.Unsat {
		t.Fatalf("unbudgeted recheck = %v, want Unsat", st)
	}
}

// TestCheckCtxBudgetAbortsAcrossWarmSweep drives an assumption-set sweep
// (shared prefixes, the shape the candidate loops produce) over one warm
// incremental solver under a starvation budget: every step aborts with
// ErrBudget, and once the budget is lifted every set in the sweep
// recomputes to the honest Unsat.
func TestCheckCtxBudgetAbortsAcrossWarmSweep(t *testing.T) {
	s := NewSolver()
	pigeonhole(s, 7, 6)
	// Free selector atoms: assumption prefixes orthogonal to the core.
	s1, s2, s3 := s.Var("s1"), s.Var("s2"), s.Var("s3")
	sweep := [][]*Expr{{s1}, {s1, s2}, {s1, s2, s3}}

	ctx := context.Background()
	s.SetBudget(sat.Budget{Conflicts: 5})
	for i, assumptions := range sweep {
		st := s.CheckCtx(ctx, assumptions...)
		if st != sat.Unknown {
			t.Skipf("PHP(7,6) resolved under a 5-conflict budget at step %d (status %v)", i, st)
		}
		if cause := s.AbortCause(); !errors.Is(cause, faults.ErrBudget) {
			t.Fatalf("sweep step %d: AbortCause = %v, want faults.ErrBudget", i, cause)
		}
	}
	s.SetBudget(sat.Budget{})
	for i, assumptions := range sweep {
		if st := s.CheckCtx(ctx, assumptions...); st != sat.Unsat {
			t.Fatalf("recheck step %d = %v, want Unsat", i, st)
		}
	}
	if st := s.CheckCtx(ctx, s1, s2); st != sat.Unsat {
		t.Fatalf("post-sweep repeat = %v, want Unsat", st)
	}
}

func TestCheckCtxCancelled(t *testing.T) {
	s := NewSolver()
	a := s.Var("a")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if st := s.CheckCtx(ctx, a); st != sat.Unknown {
		t.Fatalf("status = %v, want Unknown under cancelled ctx", st)
	}
	// The aborted call leaves the solver usable.
	if st := s.CheckCtx(context.Background(), a); st != sat.Sat {
		t.Fatalf("status = %v, want Sat", st)
	}
}
