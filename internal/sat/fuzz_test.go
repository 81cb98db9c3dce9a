package sat

import (
	"fmt"
	"testing"
)

// FuzzIncrementalSolve feeds the warm solver random interleavings of
// clause additions and assumption-set queries decoded from the fuzz input,
// cross-checking every verdict against the DPLL reference deciding from
// scratch. It is the open-ended arm of the solver-equivalence battery:
// the seeded differential tests replay fixed distributions, the fuzzer
// explores op sequences those distributions never draw (deep shared
// prefixes after Unsat returns, clause additions between every query,
// repeated identical assumption sets, ...).
//
// Input format (byte-oriented so the mutator stays effective):
//
//	byte 0      nVars = 4 + b%9            (4..12, DPLL-tractable)
//	then ops:   opcode b%4 == 0  → add a clause
//	                               (len byte → 1..3, then len lit bytes)
//	            opcode b%4 != 0  → solve under assumptions
//	                               (count byte → 1..3, then count lit bytes)
//	lit byte:   var = 1 + b%nVars, negated when b has bit 7 set
func FuzzIncrementalSolve(f *testing.F) {
	// Seeds: the shrunk kernel of the first real soundness bug this battery
	// caught (an Unsat-under-assumptions return left a conflicting trail
	// behind for the next query), plus minimal shapes for each opcode path.
	f.Add([]byte{
		2,       // nVars = 6
		0, 0, 5, // add {x5}  — wants a root unit early
		0, 1, 0x85, 0x81, // add {¬x6, ¬x2}
		0, 2, 4, 0x82, 5, // add {x5, ¬x3, x6}
		1, 1, 0x82, // solve {¬x3}
		1, 2, 0, 2, // solve {x1, x3}
		2, 2, 0, 2, // solve {x1, x3} again (repeated assumption set)
		0, 1, 0x80, 1, // add {¬x1, x2}
		3, 2, 0, 2, 4, // solve {x1, x3, x5}
	})
	f.Add([]byte{0, 1, 0, 1, 1, 0x80})          // add then contradict via assumption
	f.Add([]byte{8, 1, 1, 2, 0, 3, 0, 1, 2, 3}) // query-first, clause later
	f.Add([]byte{5, 0, 0, 3, 0, 0, 0x83})       // root unit then its negation: top-level unsat

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 256 {
			return
		}
		nVars := 4 + int(data[0])%9
		data = data[1:]

		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		var clauses [][]Lit

		readLits := func(n int) ([]Lit, bool) {
			if len(data) < n {
				return nil, false
			}
			seen := map[int]bool{}
			var lits []Lit
			for _, b := range data[:n] {
				v := 1 + int(b&0x7f)%nVars
				if seen[v] {
					continue
				}
				seen[v] = true
				l := Lit(v)
				if b&0x80 != 0 {
					l = -l
				}
				lits = append(lits, l)
			}
			data = data[n:]
			return lits, true
		}

		queries, adds := 0, 0
		for len(data) >= 2 && queries < 16 && adds < 48 {
			op := data[0] % 4
			n := 1 + int(data[1])%3
			data = data[2:]
			lits, ok := readLits(n)
			if !ok {
				break
			}
			if op == 0 {
				adds++
				clauses = append(clauses, lits)
				if !s.AddClause(append([]Lit(nil), lits...)...) {
					// Top-level unsat: the reference must agree, and every
					// later verdict is pinned to Unsat, so stop here.
					if refSolve(nVars, clauses) {
						t.Fatalf("AddClause reports top-level unsat, reference says sat (clauses=%v)", clauses)
					}
					return
				}
				continue
			}
			queries++
			want := refDecide(nVars, clauses, lits)
			got := s.Solve(lits...)
			tag := fmt.Sprintf("query %d assumptions=%v clauses=%v", queries, lits, clauses)
			if got == Unknown {
				t.Fatalf("%s: unexpected Unknown", tag)
			}
			if (got == Sat) != want {
				t.Fatalf("%s: warm solver=%v reference=%v", tag, got, want)
			}
			if got == Sat {
				withUnits := append([][]Lit{}, clauses...)
				for _, a := range lits {
					withUnits = append(withUnits, []Lit{a})
				}
				checkModel(t, s, withUnits, tag)
			}
		}
	})
}
