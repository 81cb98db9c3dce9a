package harness

import (
	"reflect"
	"testing"

	"lcm/internal/cryptolib"
	"lcm/internal/smt"
)

// allSuites spans all five detection engines (pht, stl, fwd/new variants,
// psf, imp, ss) — the full litmus corpus.
var allSuites = []string{"pht", "stl", "fwd", "new", "psf", "imp", "ss"}

// compareRows asserts two normalized row slices agree on printed output
// and findings.
func compareRows(t *testing.T, label string, want, got []Row) {
	t.Helper()
	wn, gn := normalize(want), normalize(got)
	if w, g := formats(wn), formats(gn); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: rows differ:\nwant: %v\ngot:  %v", label, w, g)
	}
	if len(wn) != len(gn) {
		return
	}
	for i := range wn {
		if !reflect.DeepEqual(wn[i].Findings, gn[i].Findings) {
			t.Errorf("%s: row %d (%s/%s): findings differ", label, i, wn[i].App, wn[i].Tool)
		}
	}
}

// TestNoPresolveDeterministicAcrossWorkers is the ablation leg of the
// determinism guard: with the static pre-solver off, every residual query
// reaches the incremental solver, so this pins that warm-solver state
// (learnt clauses, phase saving, the model cache) never leaks
// nondeterminism across the parallel pipeline. All five engines, -j1 vs
// -j8, byte-identical rows and findings.
func TestNoPresolveDeterministicAcrossWorkers(t *testing.T) {
	for _, suite := range allSuites {
		t.Run(suite, func(t *testing.T) {
			serial, err := RunLitmusSuite(suite, Options{Parallelism: 1, NoPresolve: true})
			if err != nil {
				t.Fatal(err)
			}
			par, err := RunLitmusSuite(suite, Options{Parallelism: 8, NoPresolve: true})
			if err != nil {
				t.Fatal(err)
			}
			compareRows(t, "j1 vs j8", serial, par)
		})
	}
}

// TestSolverCheckModeLitmus replays the full litmus corpus in
// smt.ModeCheck: every residual query is decided by the warm incremental
// solver AND a fresh reference instance replaying the clause log, and the
// verdicts must agree. The pre-solver is disabled so nothing is discharged
// before reaching the solver pair.
func TestSolverCheckModeLitmus(t *testing.T) {
	var checks, mismatches int64
	for _, suite := range allSuites {
		rows, err := RunLitmusSuite(suite, Options{NoPresolve: true, SolverMode: smt.ModeCheck})
		if err != nil {
			t.Fatalf("suite %s: %v", suite, err)
		}
		for _, r := range rows {
			checks += r.SolverChecks
			mismatches += r.SolverMismatches
		}
	}
	if checks == 0 {
		t.Fatal("check mode replayed zero queries across the litmus corpus")
	}
	if mismatches != 0 {
		t.Fatalf("incremental/fresh verdict mismatches = %d, want 0 (checks = %d)", mismatches, checks)
	}
}

// TestSolverCheckModeCryptolib runs the same incremental/fresh self-check
// over a crypto-library sweep — deeper functions, longer assumption
// sweeps, more clause growth between queries than litmus cases exhibit.
// secretbox is the pick because its candidates reach the solver (tea's are
// all refuted statically or trivially absent under universal-only classes);
// MaxQueries bounds the quadratic clause-log replay cost of check mode.
func TestSolverCheckModeCryptolib(t *testing.T) {
	lib, ok := cryptolib.Lookup("secretbox")
	if !ok {
		t.Fatal("secretbox library missing from corpus")
	}
	rows, err := RunLibrary(lib, Options{
		CryptoUniversalOnly: true,
		NoPresolve:          true,
		SolverMode:          smt.ModeCheck,
		MaxQueries:          80,
	})
	if err != nil {
		t.Fatal(err)
	}
	var checks, mismatches int64
	for _, r := range rows {
		checks += r.SolverChecks
		mismatches += r.SolverMismatches
	}
	if checks == 0 {
		t.Fatal("check mode replayed zero queries across the library sweep")
	}
	if mismatches != 0 {
		t.Fatalf("incremental/fresh verdict mismatches = %d, want 0 (checks = %d)", mismatches, checks)
	}
}

// TestIncrementalMatchesFreshReference is the report-identity acceptance
// check: the default configuration (warm incremental solver, pre-solver
// on) and the maximally-suspicious configuration (pre-solver off, every
// residual query also replayed on a fresh reference instance in
// smt.ModeCheck) must print identical rows and produce identical findings
// on the whole litmus corpus. Neither warm-solver reuse nor static
// discharge may shift a single verdict; TestSolverCheckModeLitmus asserts
// the reference agrees with the warm solver on every replayed query.
func TestIncrementalMatchesFreshReference(t *testing.T) {
	for _, suite := range allSuites {
		t.Run(suite, func(t *testing.T) {
			warm, err := RunLitmusSuite(suite, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := RunLitmusSuite(suite, Options{NoPresolve: true, SolverMode: smt.ModeCheck})
			if err != nil {
				t.Fatal(err)
			}
			compareRows(t, "incremental+presolve vs check+nopresolve", warm, ref)
		})
	}
}
