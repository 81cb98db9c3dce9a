// Command clou is the static analyzer of §5: it takes mini-C source,
// lowers it Clang-O0-style, builds the A-CFG and symbolic AEG, and runs
// the Clou-pht or Clou-stl leakage detection engine. It prints detected
// transmitters by class, optionally emits witness executions as DOT
// graphs, and can repair the program by minimal lfence insertion (§6.1).
//
// Usage:
//
//	clou -engine pht|stl [-func name] [-rob 250] [-lsq 50] [-w 100]
//	     [-transmitter udt,uct,dt,ct] [-fix] [-dot] [-timeout 30s]
//	     [-report out.json] [-debug-addr :6060] file.c
//	clou -gen N [-seed S] [-j 8] [-gen-budget 2m] [-report out.json]
//	     [-store DIR [-workers 4]]
//
// -gen N switches to conformance smoke mode: generate N seeded mini-C
// programs and run the progen oracle families on each (see
// internal/progen) instead of analyzing a file. The campaign state lives
// in a crash-safe transactional store (internal/campstore): verdicts are
// WAL-committed as they land. -store DIR keeps that store, so a killed
// campaign rerun with the same -store resumes instead of restarting;
// without it the store is a temporary directory removed at exit.
// -workers N shards the campaign across N OS worker processes
// coordinating purely through the store (a killed worker's claims are
// reclaimed between waves); -worker is the spawned workers' own mode.
//
// -report writes the machine-readable run manifest (per-function
// verdicts, metric snapshot, span tree; see internal/obsv); -debug-addr
// serves expvar and net/http/pprof for live inspection of long runs.
//
// Exit codes: 0 = analysis completed clean at full precision; 1 = leaks
// detected (or conformance oracle failures); 2 = usage or input error;
// 3 = partial or operational: no findings, but at least one verdict was
// degraded, unknown, or skipped — or campaign storage failed with a
// classified io/corrupt fault (the state on disk survives; retry to
// finish).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"lcm/internal/core"
	"lcm/internal/detect"
	"lcm/internal/dot"
	"lcm/internal/ir"
	"lcm/internal/lower"
	"lcm/internal/minic"
	"lcm/internal/obsv"
	"lcm/internal/repair"
	"lcm/internal/smt"
)

// Exit codes of the CLI contract (shared with lcmlint).
const (
	exitClean    = 0
	exitFindings = 1
	exitUsage    = 2
	exitPartial  = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main under test: it parses args, drives one analysis or
// conformance sweep, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("clou", flag.ContinueOnError)
	fs.SetOutput(stderr)
	engine := fs.String("engine", "pht", "detection engine: pht (Spectre v1/v1.1), stl (Spectre v4), psf (alias-predicted store forwarding), imp (indirect memory prefetcher), or ss (silent stores)")
	fn := fs.String("func", "", "analyze only this function (default: all defined functions)")
	rob := fs.Int("rob", 250, "reorder buffer capacity")
	lsq := fs.Int("lsq", 50, "load/store queue capacity")
	wsize := fs.Int("w", 100, "sliding window size (Wsize)")
	classes := fs.String("transmitter", "", "comma-separated classes to search (dt,ct,udt,uct); empty = all")
	fix := fs.Bool("fix", false, "insert a minimal set of lfences and verify the repair")
	emitDot := fs.Bool("dot", false, "print a witness execution as DOT for each function's first finding")
	timeout := fs.Duration("timeout", 30*time.Second, "per-function time budget")
	printIR := fs.Bool("ir", false, "dump the lowered IR and exit")
	verbose := fs.Bool("v", false, "report candidate and range-pruned pattern counts per function")
	noPrune := fs.Bool("noprune", false, "disable range-analysis candidate pruning")
	noPresolve := fs.Bool("nopresolve", false, "disable the proof-carrying static pre-solver (ablation baseline)")
	auditPresolve := fs.Bool("audit-presolve", false, "replay every pre-solver decision (refuted and witnessed queries) through the solver and recheck every range certificate; fail on disagreement")
	solverMode := fs.String("solver", "incremental", "residual-query solver mode: incremental (warm CDCL) or check (also replay every query on a fresh reference instance; fail on verdict mismatch)")
	litmusSuite := fs.String("litmus", "", "run the built-in litmus corpus (pht, stl, fwd, new, psf, imp, ss, or all) instead of analyzing a file")
	par := fs.Int("j", runtime.GOMAXPROCS(0), "analyze up to N functions in parallel")
	reportPath := fs.String("report", "", "write a machine-readable JSON run report to this path (- for stdout)")
	debugAddr := fs.String("debug-addr", "", "serve expvar and net/http/pprof on this address (e.g. :6060)")
	genN := fs.Int("gen", 0, "conformance smoke mode: generate N seeded programs and run the oracle families instead of analyzing a file")
	seed := fs.Int64("seed", 1, "generator seed for -gen")
	genBudget := fs.Duration("gen-budget", 0, "optional wall-clock budget for -gen (0 = none; budgeted runs may skip programs)")
	storeDir := fs.String("store", "", "for -gen: keep the crash-safe campaign store in this directory (a rerun resumes it; default: a temporary directory)")
	workers := fs.Int("workers", 0, "for -gen -store: shard the campaign across N OS worker processes")
	workerMode := fs.Bool("worker", false, "for -gen -store: run as a campaign worker (claim items until none remain)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	if *genN > 0 {
		return runGen(genOptions{
			n: *genN, seed: *seed, jobs: *par, budget: *genBudget,
			report: *reportPath, store: *storeDir, workers: *workers,
			workerMode: *workerMode,
		}, stdout, stderr)
	}
	mode, err := smt.ParseMode(*solverMode)
	if err != nil {
		fmt.Fprintln(stderr, "clou:", err)
		return exitUsage
	}
	if *litmusSuite != "" {
		return runLitmus(litmusOptions{
			suite: *litmusSuite, jobs: *par, timeout: *timeout,
			noPresolve: *noPresolve, audit: *auditPresolve, verbose: *verbose,
			solver: mode,
		}, stdout, stderr)
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: clou [flags] file.c")
		fs.Usage()
		return exitUsage
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "clou:", err)
		return exitUsage
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	file, err := minic.Parse(string(src))
	if err != nil {
		return fail(fmt.Errorf("parse: %w", err))
	}
	m, err := lower.Module(file)
	if err != nil {
		return fail(fmt.Errorf("lower: %w", err))
	}
	if *printIR {
		fmt.Fprint(stdout, m.String())
		return exitClean
	}

	eng, err := detect.ParseEngine(*engine)
	if err != nil {
		return fail(err)
	}
	cfg := detect.DefaultConfig(eng)
	cfg.AEG.ROB = *rob
	cfg.AEG.LSQ = *lsq
	cfg.AEG.Wsize = *wsize
	cfg.Timeout = *timeout
	cfg.NoPrune = *noPrune
	cfg.NoPresolve = *noPresolve
	cfg.AuditPresolve = *auditPresolve
	cfg.AEG.SolverMode = mode
	if *classes != "" {
		for _, c := range strings.Split(*classes, ",") {
			switch strings.TrimSpace(strings.ToLower(c)) {
			case "dt":
				cfg.Transmitters = append(cfg.Transmitters, core.DT)
			case "ct":
				cfg.Transmitters = append(cfg.Transmitters, core.CT)
			case "udt":
				cfg.Transmitters = append(cfg.Transmitters, core.UDT)
			case "uct":
				cfg.Transmitters = append(cfg.Transmitters, core.UCT)
			default:
				return fail(fmt.Errorf("unknown transmitter class %q", c))
			}
		}
	}

	// Observability: the tracer and registry are allocated only when a
	// consumer asked for them (-report or -debug-addr, and the tracer for
	// -v's frontend stage times); nil handles make every span/metric call
	// a no-op.
	var tracer *obsv.Tracer
	var metrics *obsv.Registry
	if *reportPath != "" || *debugAddr != "" || *verbose {
		tracer = obsv.NewTracer()
	}
	if *reportPath != "" || *debugAddr != "" {
		metrics = obsv.NewRegistry()
	}
	if *debugAddr != "" {
		addr, err := obsv.ServeDebug(*debugAddr, metrics)
		if err != nil {
			return fail(fmt.Errorf("debug server: %w", err))
		}
		fmt.Fprintf(stderr, "clou: debug server on http://%s/debug/\n", addr)
	}

	// Detection fans out over the worker pool; repair (which mutates the
	// module) and printing stay serial, in input order. The analysis cache
	// shares frontends between workers, but is withheld under -fix: a
	// cache must never outlive a module mutation.
	var cache *detect.Cache
	if !*fix {
		cache = detect.NewCache()
		cfg.Cache = cache
	}
	cfg.Metrics = metrics
	sweepStart := time.Now()
	fns := targets(m, *fn)
	results, errs := analyzeAll(context.Background(), m, fns, cfg, *par, tracer)
	fnSpans := lastSpans(tracer)

	totalFindings := 0
	sweepErrors := 0
	degraded := 0
	disagreements := 0
	for i, name := range fns {
		res, err := results[i], errs[i]
		if err != nil {
			fmt.Fprintf(stderr, "clou: %s: %v\n", name, err)
			sweepErrors++
			continue
		}
		counts := res.Counts()
		fmt.Fprintf(stdout, "== %s: %d nodes, %d queries, %v%s\n", name, res.NodeCount, res.Queries,
			res.Duration.Round(time.Millisecond), rungSuffix(res))
		fmt.Fprintf(stdout, "   DT=%d CT=%d UDT=%d UCT=%d\n",
			counts[core.DT], counts[core.CT], counts[core.UDT], counts[core.UCT])
		if res.Rung != detect.RungFull {
			degraded++
		}
		disagreements += res.PresolveDisagreements
		if *verbose {
			fmt.Fprintf(stdout, "   candidates=%d pruned=%d (range analysis)\n", res.Candidates, res.Pruned)
			if !*noPresolve {
				fmt.Fprintf(stdout, "   presolve: discharged=%d skipped-queries=%d certs=%d audited=%d disagreements=%d\n",
					res.Discharged, res.SkippedQueries, len(res.Certificates), res.PresolveAudited, res.PresolveDisagreements)
			}
			fmt.Fprintf(stdout, "   frontend=%v encode=%v solve=%v cached=%v\n",
				res.FrontendTime.Round(time.Microsecond), res.EncodeTime.Round(time.Microsecond),
				res.SolveTime.Round(time.Microsecond), res.CacheHit)
			fmt.Fprintf(stdout, "   frontend:%s\n", frontendStages(fnSpans["fn:"+name]))
		}
		for _, f := range res.Findings {
			fmt.Fprintf(stdout, "   %s\n", f)
			totalFindings++
		}
		if *emitDot && len(res.Findings) > 0 {
			g, err := detect.Witness(res, res.Findings[0])
			if err == nil {
				fmt.Fprintln(stdout, dot.Graph(g, name+"-witness"))
			}
		}
		if *fix && len(res.Findings) > 0 {
			rr, err := repair.Repair(m, name, cfg, 0)
			if err != nil {
				fmt.Fprintf(stderr, "clou: repair %s: %v\n", name, err)
				sweepErrors++
				continue
			}
			fmt.Fprintf(stdout, "   repaired with %d lfence(s) in %d round(s); remaining findings: %d\n",
				rr.Fences, rr.Rounds, rr.Remaining)
		}
	}
	if *fix {
		fmt.Fprintln(stdout, "== repaired IR ==")
		fmt.Fprint(stdout, m.String())
	}
	if *verbose && cache != nil {
		hits, misses := cache.Stats()
		fmt.Fprintf(stdout, "== workers=%d frontend-cache: hits=%d misses=%d\n", *par, hits, misses)
	}
	if *reportPath != "" {
		rep := buildReport(*engine, *par, fns, results, errs, tracer, metrics, time.Since(sweepStart))
		if err := rep.WriteFile(*reportPath); err != nil {
			return fail(fmt.Errorf("report: %w", err))
		}
	}
	if disagreements > 0 {
		fmt.Fprintf(stderr, "clou: presolve audit: %d disagreement(s)\n", disagreements)
	}
	switch {
	case sweepErrors > 0:
		return exitUsage
	case disagreements > 0:
		return exitFindings
	case totalFindings > 0 && !*fix:
		return exitFindings
	case degraded > 0:
		return exitPartial
	}
	return exitClean
}

func targets(m *ir.Module, only string) []string {
	if only != "" {
		return []string{only}
	}
	var out []string
	for _, f := range m.Funcs {
		if !f.IsDecl() {
			out = append(out, f.Nm)
		}
	}
	return out
}

// rungSuffix annotates the per-function summary line with the
// degradation-ladder rung the verdict was decided at, when not full.
func rungSuffix(res *detect.Result) string {
	if res.Rung == detect.RungFull {
		return ""
	}
	if res.Failure != "" {
		return fmt.Sprintf(" (rung=%s after %s)", res.Rung, res.Failure)
	}
	return fmt.Sprintf(" (rung=%s)", res.Rung)
}
