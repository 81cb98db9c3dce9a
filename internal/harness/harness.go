// Package harness regenerates the paper's evaluation artifacts: the
// Table 2 rows (runtimes and classified transmitter counts for Clou-pht /
// Clou-stl versus the BH-style baseline, over the litmus suites and the
// crypto-library corpus) and the Fig. 8 runtime-versus-size series.
//
// Sweeps fan out over a bounded worker pool (Options.Parallelism, the -j
// of the command-line tools): every per-function detect.AnalyzeFunc call
// is an independent job, results are written into index-addressed slots,
// and rows are reassembled in input order — so the output is byte-for-byte
// identical at any worker count. Library sources are parsed and lowered
// once per process, and the engine-independent front end (A-CFG, alias,
// taint, reachability, value flow) is shared between the engines through
// a process-wide detect.Cache.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"lcm/internal/baseline"
	"lcm/internal/core"
	"lcm/internal/cryptolib"
	"lcm/internal/detect"
	"lcm/internal/ir"
	"lcm/internal/litmus"
	"lcm/internal/lower"
	"lcm/internal/minic"
	"lcm/internal/obsv"
	"lcm/internal/smt"
)

// Row is one Table 2 row for one tool on one workload.
type Row struct {
	App      string
	Tool     string
	Time     time.Duration
	Counts   map[core.Class]int
	Leaks    int // baseline's flat count
	Funcs    int
	TimedOut int
	// Queries totals solver queries across the row's functions (Clou
	// rows only).
	Queries int
	// Pre-solver totals across the row's functions: statically discharged
	// candidates, solver queries skipped, audit replays, and audit
	// disagreements (which must be zero — the conformance harness and the
	// audit-presolve CI job assert it).
	Discharged     int
	SkippedQueries int
	Audited        int
	Disagreements  int
	// Solver self-check totals (Options.SolverMode == smt.ModeCheck):
	// query verdicts replayed on a fresh reference solver, and verdicts
	// that disagreed — any nonzero SolverMismatches is an incremental-
	// soundness bug, and the equivalence battery asserts it stays zero.
	SolverChecks     int64
	SolverMismatches int64
	// Workers records the parallelism the row was produced with; it is
	// not part of Format, so output stays comparable across -j values.
	Workers int
	// Findings concatenates the per-function findings in input order
	// (Clou rows only). Not printed by Format; the determinism guard
	// compares these across worker counts.
	Findings []detect.Finding
}

// Format renders the row like Table 2: time then DT/CT/UDT/UCT counts.
func (r Row) Format() string {
	if r.Tool == "bh-pht" || r.Tool == "bh-stl" {
		return fmt.Sprintf("%-14s %-9s %10.2fs  leaks=%d", r.App, r.Tool, r.Time.Seconds(), r.Leaks)
	}
	return fmt.Sprintf("%-14s %-9s %10.2fs  DT=%d CT=%d UDT=%d UCT=%d",
		r.App, r.Tool, r.Time.Seconds(),
		r.Counts[core.DT], r.Counts[core.CT], r.Counts[core.UDT], r.Counts[core.UCT])
}

// Options bound harness runs so benchmarks terminate predictably.
type Options struct {
	FuncTimeout time.Duration // per-function budget (Table 2 uses 1h/6h)
	MaxQueries  int
	// CryptoUniversalOnly restricts crypto-library searches to UDT/UCT
	// (§6.2: "For crypto-libraries, Clou looks for UDTs and UCTs only").
	CryptoUniversalOnly bool
	// Parallelism bounds concurrent per-function analyses; 0 means
	// runtime.GOMAXPROCS(0). 1 reproduces the serial pipeline exactly.
	Parallelism int
	// Tracer, when non-nil, records one root span per sweep, with
	// per-stage ("clou", "baseline") and per-function children. Nil (the
	// default) disables tracing at zero cost.
	Tracer *obsv.Tracer
	// Metrics, when non-nil, receives the detect.* and sat.* counters of
	// every analyzed function.
	Metrics *obsv.Registry
	// NoPresolve disables the static pre-solver (ablation baseline);
	// AuditPresolve replays every query the pre-solver decided through the
	// solver and counts disagreements instead of skipping it.
	NoPresolve    bool
	AuditPresolve bool
	// SolverMode selects how residual queries are discharged: warm
	// incremental CDCL (default), or that plus a fresh reference replay
	// of every query with verdict self-checking (smt.ModeCheck).
	SolverMode smt.Mode
}

func (o *Options) defaults() {
	if o.FuncTimeout == 0 {
		o.FuncTimeout = 20 * time.Second
	}
	if o.MaxQueries == 0 {
		o.MaxQueries = 4000
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
}

// modEntry is one slot of the process-wide compile cache; once makes
// concurrent first compilations of the same source collapse into one.
type modEntry struct {
	once sync.Once
	m    *ir.Module
	err  error
}

// modCache maps source text to its lowered module, so each litmus case or
// corpus library is parsed and lowered once per process rather than once
// per engine per benchmark iteration. Compiled modules are never mutated
// by the harness (repair clones its own), so sharing is safe.
var modCache sync.Map // string → *modEntry

func compileSrc(src string) (*ir.Module, error) {
	e, _ := modCache.LoadOrStore(src, &modEntry{})
	ent := e.(*modEntry)
	ent.once.Do(func() {
		f, err := minic.Parse(src)
		if err != nil {
			ent.err = err
			return
		}
		ent.m, ent.err = lower.Module(f)
	})
	return ent.m, ent.err
}

// analysisCache is the process-wide front-end cache shared by every
// harness run; it is keyed by module pointer, and modCache guarantees
// those pointers are stable per source for the life of the process.
var analysisCache = detect.NewCache()

// ResetFrontendCache discards the process-wide front-end cache, forcing the
// next analysis to rebuild every frontend from scratch. Benchmarks use it
// to measure cold frontends; concurrent analyses simply miss into the fresh
// cache, so calling it mid-run costs recomputation, never correctness.
func ResetFrontendCache() { analysisCache = detect.NewCache() }

func clouConfig(engine detect.Engine, opts Options, universalOnly bool, span *obsv.Span) detect.Config {
	cfg := detect.DefaultConfig(engine)
	cfg.Timeout = opts.FuncTimeout
	cfg.MaxQueries = opts.MaxQueries
	cfg.Cache = analysisCache
	cfg.Span = span
	cfg.Metrics = opts.Metrics
	cfg.NoPresolve = opts.NoPresolve
	cfg.AuditPresolve = opts.AuditPresolve
	cfg.AEG.SolverMode = opts.SolverMode
	if universalOnly {
		cfg.Transmitters = []core.Class{core.UDT, core.UCT}
	}
	return cfg
}

// addResult folds one function's analysis into a row.
func (r *Row) addResult(res *detect.Result) {
	r.Time += res.Duration
	for cl, n := range res.Counts() {
		r.Counts[cl] += n
	}
	r.Funcs++
	r.Queries += res.Queries
	r.Discharged += res.Discharged
	r.SkippedQueries += res.SkippedQueries
	r.Audited += res.PresolveAudited
	r.Disagreements += res.PresolveDisagreements
	r.SolverChecks += res.SolverChecks
	r.SolverMismatches += res.SolverMismatches
	r.Findings = append(r.Findings, res.Findings...)
	if res.TimedOut {
		r.TimedOut++
	}
}

// RunLitmusSuite produces the Clou and baseline rows for one suite
// ("pht", "stl", "fwd", "new", "psf", "imp", "ss").
func RunLitmusSuite(suite string, opts Options) ([]Row, error) {
	opts.defaults()
	root := opts.Tracer.Start("litmus-" + suite)
	defer root.End()
	cases := litmus.Suites()[suite]
	engines := []detect.Engine{detect.PHT}
	switch suite {
	case "stl":
		engines = []detect.Engine{detect.STL}
	case "fwd", "new":
		engines = []detect.Engine{detect.PHT, detect.STL}
	case "psf":
		engines = []detect.Engine{detect.PSF}
	case "imp":
		engines = []detect.Engine{detect.IMP}
	case "ss":
		engines = []detect.Engine{detect.SS}
	}

	// Clou jobs: engine-major over the suite's cases.
	results := make([]*detect.Result, len(engines)*len(cases))
	err := ForEachSpan(root, "clou", opts.Parallelism, len(results), func(i int, sp *obsv.Span) error {
		e, c := engines[i/len(cases)], cases[i%len(cases)]
		m, err := compileSrc(c.Source)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		r, err := detect.AnalyzeFunc(m, c.Fn, clouConfig(e, opts, false, sp))
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Row
	for ei, e := range engines {
		row := Row{App: "litmus-" + suite, Tool: e.String(), Counts: map[core.Class]int{}, Workers: opts.Parallelism}
		for ci := range cases {
			row.addResult(results[ei*len(cases)+ci])
		}
		rows = append(rows, row)
	}

	// Baseline rows. The Blade/oo7-style baseline only models branch and
	// store-bypass speculation, so the taxonomy suites get no baseline —
	// there is nothing meaningful for it to measure there.
	switch suite {
	case "psf", "imp", "ss":
		return rows, nil
	}
	bres := make([]*baseline.Result, len(engines)*len(cases))
	err = ForEachSpan(root, "baseline", opts.Parallelism, len(bres), func(i int, _ *obsv.Span) error {
		e, c := engines[i/len(cases)], cases[i%len(cases)]
		cfg := baseline.Config{PHT: e != detect.STL, Timeout: opts.FuncTimeout}
		m, err := compileSrc(c.Source)
		if err != nil {
			return err
		}
		r, err := baseline.AnalyzeFunc(m, c.Fn, cfg)
		if err != nil {
			return err
		}
		bres[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ei, e := range engines {
		tool := "bh-pht"
		if e == detect.STL {
			tool = "bh-stl"
		}
		row := Row{App: "litmus-" + suite, Tool: tool, Workers: opts.Parallelism}
		for ci := range cases {
			r := bres[ei*len(cases)+ci]
			row.Time += r.Duration
			row.Leaks += r.Leaks
			row.Funcs++
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunLibrary produces Clou rows (both engines) for one corpus library,
// analyzing each public function individually like §6.2.
func RunLibrary(lib cryptolib.Library, opts Options) ([]Row, error) {
	opts.defaults()
	root := opts.Tracer.Start("library-" + lib.Name)
	defer root.End()
	m, err := compileSrc(lib.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", lib.Name, err)
	}
	engines := []detect.Engine{detect.PHT, detect.STL}
	results := make([]*detect.Result, len(engines)*len(lib.PublicFuncs))
	err = ForEachSpan(root, "clou", opts.Parallelism, len(results), func(i int, sp *obsv.Span) error {
		e, fn := engines[i/len(lib.PublicFuncs)], lib.PublicFuncs[i%len(lib.PublicFuncs)]
		r, err := detect.AnalyzeFunc(m, fn, clouConfig(e, opts, opts.CryptoUniversalOnly, sp))
		if err != nil {
			return fmt.Errorf("%s/%s: %w", lib.Name, fn, err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Row
	for ei, e := range engines {
		row := Row{App: lib.Name, Tool: e.String(), Counts: map[core.Class]int{}, Workers: opts.Parallelism}
		for fi := range lib.PublicFuncs {
			row.addResult(results[ei*len(lib.PublicFuncs)+fi])
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig8Point is one scatter point of Fig. 8: cold serial runtime versus
// S-AEG node count for one public function.
type Fig8Point struct {
	Fn      string
	Engine  string
	Nodes   int
	Runtime time.Duration
}

// RunFig8 produces the runtime-versus-size series over the libsodium-like
// corpus, for both engines. It analyzes one function at a time whatever
// opts.Parallelism says: a Fig8Point's runtime is a serial runtime, and
// concurrent analyses would stretch each other's wall time. Its analyses
// bypass the frontend cache, so every point is a cold runtime that
// includes its own frontend build.
func RunFig8(opts Options) ([]Fig8Point, error) {
	opts.defaults()
	root := opts.Tracer.Start("fig8")
	defer root.End()
	lib := cryptolib.Libsodium()
	m, err := compileSrc(lib.Source)
	if err != nil {
		return nil, err
	}
	engines := []detect.Engine{detect.PHT, detect.STL}
	pts := make([]Fig8Point, len(engines)*len(lib.PublicFuncs))
	err = ForEachSpan(root, "clou", 1, len(pts), func(i int, sp *obsv.Span) error {
		e, fn := engines[i/len(lib.PublicFuncs)], lib.PublicFuncs[i%len(lib.PublicFuncs)]
		cfg := clouConfig(e, opts, true, sp)
		cfg.Cache = nil
		r, err := detect.AnalyzeFunc(m, fn, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", fn, err)
		}
		pts[i] = Fig8Point{Fn: fn, Engine: e.String(), Nodes: r.NodeCount, Runtime: r.Duration}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(pts, func(i, j int) bool { return pts[i].Nodes < pts[j].Nodes })
	return pts, nil
}

// WriteFig8 renders the series as a text table (the regenerable form of
// the figure).
func WriteFig8(w io.Writer, pts []Fig8Point) {
	fmt.Fprintf(w, "%-34s %-9s %8s %12s\n", "function", "engine", "nodes", "runtime")
	for _, p := range pts {
		fmt.Fprintf(w, "%-34s %-9s %8d %12v\n", p.Fn, p.Engine, p.Nodes, p.Runtime)
	}
}

// MonotoneTrend reports whether runtimes broadly grow with node count:
// the Fig. 8 shape check. It compares mean runtime of the smallest and
// largest thirds.
func MonotoneTrend(pts []Fig8Point) bool {
	if len(pts) < 6 {
		return true
	}
	third := len(pts) / 3
	var lo, hi time.Duration
	for _, p := range pts[:third] {
		lo += p.Runtime
	}
	for _, p := range pts[len(pts)-third:] {
		hi += p.Runtime
	}
	return hi > lo
}
