package detect

import (
	"lcm/internal/obsv"
)

// record folds one function's result into the metrics registry. All
// handles are nil-safe, so a nil registry costs only the guard below.
func (r *Result) record(reg *obsv.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("detect.functions").Add(1)
	reg.Counter("detect.queries").Add(int64(r.Queries))
	reg.Counter("detect.candidates").Add(int64(r.Candidates))
	reg.Counter("detect.pruned").Add(int64(r.Pruned))
	reg.Counter("detect.findings").Add(int64(len(r.Findings)))
	reg.Counter("presolve.discharged").Add(int64(r.Discharged))
	reg.Counter("presolve.skipped_queries").Add(int64(r.SkippedQueries))
	reg.Counter("presolve.certificates").Add(int64(len(r.Certificates)))
	reg.Counter("presolve.audited").Add(int64(r.PresolveAudited))
	reg.Counter("presolve.disagreements").Add(int64(r.PresolveDisagreements))
	reg.Counter("detect.cache_hits").Add(b2i(r.CacheHit))
	reg.Counter("detect.timeouts").Add(b2i(r.TimedOut))
	reg.Counter("detect.budget_hits").Add(b2i(r.BudgetHit))
	reg.Counter("sat.decisions").Add(r.Decisions)
	reg.Counter("sat.propagations").Add(r.Propagations)
	reg.Counter("sat.conflicts").Add(r.Conflicts)
	reg.Counter("sat.restarts").Add(r.Restarts)
	reg.Counter("smt.tseitin_gates").Add(r.TseitinGates)
	reg.Counter("smt.model_hits").Add(r.ModelCacheHits)
	reg.Counter("smt.self_checks").Add(r.SolverChecks)
	reg.Counter("smt.self_mismatches").Add(r.SolverMismatches)
	reg.Histogram("detect.func_ns").Observe(r.Duration)
	reg.Histogram("detect.frontend_ns").Observe(r.FrontendTime)
	reg.Histogram("detect.encode_ns").Observe(r.EncodeTime)
	reg.Histogram("detect.solve_ns").Observe(r.SolveTime)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Report converts the result to its run-report form: the per-function
// record of the stable JSON schema clou -report emits.
func (r *Result) Report() obsv.FuncReport {
	fr := obsv.FuncReport{
		Name:          r.Fn,
		Nodes:         r.NodeCount,
		Queries:       r.Queries,
		Candidates:    r.Candidates,
		Pruned:        r.Pruned,
		Discharged:    r.Discharged,
		Skipped:       r.SkippedQueries,
		Audited:       r.PresolveAudited,
		Disagreements: r.PresolveDisagreements,
		TseitinGates:  r.TseitinGates,
		ModelHits:     r.ModelCacheHits,
		SolverChecks:  r.SolverChecks,
		Mismatches:    r.SolverMismatches,
		CacheHit:      r.CacheHit,
		TimedOut:      r.TimedOut,
		DurationNs:    r.Duration.Nanoseconds(),
		FrontendNs:    r.FrontendTime.Nanoseconds(),
		EncodeNs:      r.EncodeTime.Nanoseconds(),
		SolveNs:       r.SolveTime.Nanoseconds(),
	}
	switch {
	case r.Rung == RungUnknown:
		fr.Verdict = "unknown"
	case len(r.Findings) > 0:
		fr.Verdict = "leak"
	case r.TimedOut:
		fr.Verdict = "timeout"
	default:
		fr.Verdict = "clean"
	}
	if r.Rung != RungFull {
		fr.Rung = r.Rung.String()
	}
	fr.Failure = r.Failure
	if counts := r.Counts(); len(counts) > 0 {
		fr.Counts = make(map[string]int, len(counts))
		for cl, n := range counts {
			fr.Counts[cl.String()] = n
		}
	}
	for _, f := range r.Findings {
		fr.Findings = append(fr.Findings, obsv.FindingReport{
			Class:             f.Class.String(),
			Transmit:          f.Transmit,
			Access:            f.Access,
			Index:             f.Index,
			Branch:            f.Branch,
			Store:             f.Store,
			Load:              f.Load,
			Line:              f.Line,
			TransientTransmit: f.TransientTransmit,
			TransientAccess:   f.TransientAccess,
		})
	}
	return fr
}
