package main

import (
	"fmt"
	"io"
	"time"

	"lcm/internal/harness"
	"lcm/internal/smt"
)

// litmusOptions parameterizes the -litmus corpus mode.
type litmusOptions struct {
	suite      string // a litmus suite name, or "all"
	jobs       int
	timeout    time.Duration
	noPresolve bool
	audit      bool
	verbose    bool
	solver     smt.Mode
}

// runLitmus sweeps the built-in litmus corpus through the harness. With
// -audit-presolve every pre-solver decision is replayed through the
// solver and every range certificate rechecked; any disagreement fails the
// run — this is the CI audit job's entry point.
func runLitmus(o litmusOptions, stdout, stderr io.Writer) int {
	suites := []string{o.suite}
	if o.suite == "all" {
		suites = []string{"pht", "stl", "fwd", "new", "psf", "imp", "ss"}
	}
	opts := harness.Options{
		FuncTimeout:   o.timeout,
		Parallelism:   o.jobs,
		NoPresolve:    o.noPresolve,
		AuditPresolve: o.audit,
		SolverMode:    o.solver,
	}
	var discharged, skipped, audited, disagreements, queries int
	var selfChecks, selfMismatches int64
	for _, suite := range suites {
		rows, err := harness.RunLitmusSuite(suite, opts)
		if err != nil {
			fmt.Fprintf(stderr, "clou: litmus %s: %v\n", suite, err)
			return exitUsage
		}
		for _, r := range rows {
			fmt.Fprintln(stdout, r.Format())
			discharged += r.Discharged
			skipped += r.SkippedQueries
			audited += r.Audited
			disagreements += r.Disagreements
			queries += r.Queries
			selfChecks += r.SolverChecks
			selfMismatches += r.SolverMismatches
			if o.verbose && (r.Discharged > 0 || r.Audited > 0 || r.SkippedQueries > 0) {
				fmt.Fprintf(stdout, "%-14s %-9s   presolve: discharged=%d skipped-queries=%d audited=%d disagreements=%d\n",
					r.App, r.Tool, r.Discharged, r.SkippedQueries, r.Audited, r.Disagreements)
			}
		}
	}
	fmt.Fprintf(stdout, "== presolve: queries=%d discharged=%d skipped-queries=%d audited=%d disagreements=%d\n",
		queries, discharged, skipped, audited, disagreements)
	if o.solver == smt.ModeCheck {
		fmt.Fprintf(stdout, "== solver self-check: checks=%d mismatches=%d\n", selfChecks, selfMismatches)
	}
	if disagreements > 0 {
		fmt.Fprintf(stderr, "clou: presolve audit: %d disagreement(s)\n", disagreements)
		return exitFindings
	}
	if selfMismatches > 0 {
		fmt.Fprintf(stderr, "clou: solver self-check: %d verdict mismatch(es)\n", selfMismatches)
		return exitFindings
	}
	return exitClean
}
