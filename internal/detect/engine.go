package detect

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"lcm/internal/acfg"
	"lcm/internal/aeg"
	"lcm/internal/alias"
	"lcm/internal/core"
	"lcm/internal/dataflow"
	"lcm/internal/faultinject"
	"lcm/internal/faults"
	"lcm/internal/ir"
	"lcm/internal/obsv"
	"lcm/internal/presolve"
	"lcm/internal/sat"
	"lcm/internal/smt"
	"lcm/internal/taint"
)

// Engine selects the speculation primitive searched for (§5.3).
type Engine int

// The engines, one per modeled speculation/optimization primitive
// (Table 1's taxonomy beyond branch prediction).
const (
	PHT Engine = iota // control-flow speculation (Spectre v1, v1.1)
	STL               // store-to-load bypass (Spectre v4)
	PSF               // speculative store forwarding via alias prediction
	IMP               // indirect memory prefetcher (Fig. 5b)
	SS                // silent stores (Fig. 5a)
)

func (e Engine) String() string {
	switch e {
	case STL:
		return "clou-stl"
	case PSF:
		return "clou-psf"
	case IMP:
		return "clou-imp"
	case SS:
		return "clou-ss"
	}
	return "clou-pht"
}

// ParseEngine maps a CLI engine name ("pht", "stl", "psf", "imp", "ss",
// or the full "clou-…" form) to its Engine.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "pht", "clou-pht":
		return PHT, nil
	case "stl", "clou-stl":
		return STL, nil
	case "psf", "clou-psf":
		return PSF, nil
	case "imp", "clou-imp":
		return IMP, nil
	case "ss", "clou-ss":
		return SS, nil
	}
	return PHT, fmt.Errorf("unknown engine %q (want pht, stl, psf, imp, or ss)", name)
}

// Engines lists every engine in presentation order.
func Engines() []Engine { return []Engine{PHT, STL, PSF, IMP, SS} }

// Config parameterizes an analysis run.
type Config struct {
	Engine Engine
	// Transmitters restricts the classes searched for; empty means all of
	// DT, CT, UDT, UCT.
	Transmitters []core.Class
	// AEG bounds the S-AEG's speculation windows and queues.
	AEG aeg.Options
	// RequireGEP applies the addr_gep filter to universal patterns
	// (Clou-pht's default; unusable for STL, §5.3).
	RequireGEP bool
	// RequireTaint drops Clou-pht's universal candidates (UDT, UCT) whose
	// access address is not attacker-steerable (§5.3 taint tracking). No
	// other engine reads it: the value a forwarding engine's load returns
	// is an integer or a pointer, either of which may be
	// attacker-controlled, so every Clou-stl and Clou-psf finding is UDT.
	RequireTaint bool
	// MaxQueries bounds solver calls per function (0 = unlimited).
	MaxQueries int
	// Timeout bounds wall time per function (0 = unlimited); the paper
	// imposes per-function timeouts in Table 2.
	Timeout time.Duration
	// TriageOnly switches the detector to the range-prune-only triage
	// rung: structural candidate enumeration, pruning, and taint filtering
	// still run, but every solver query is answered optimistically true
	// without search. Findings are then a sound over-approximation — no
	// leak the full analysis would report is missed — at the price of
	// possible false positives; consumers see the precision loss through
	// Result.Rung.
	TriageOnly bool
	// InjectKey identifies this analysis to the fault-injection probes
	// (internal/faultinject); empty means the function name. The
	// degradation ladder appends its rung so retried attempts make fresh
	// injection decisions.
	InjectKey string
	// NoPrune disables the range-analysis pruner (the ablation
	// baseline). By default dataflow.Pruner discharges universal
	// candidates before taint filtering and solver queries. Pruning only
	// removes the universality claim — a discharged pattern may still be
	// reported by the DT/CT stages, which is where an in-bounds table
	// access (it leaks the table's contents, not attacker-chosen memory)
	// belongs in the taxonomy.
	NoPrune bool
	// NoPresolve disables the proof-carrying static pre-solver
	// (internal/presolve), the ablation baseline: every candidate query
	// goes to the solver. Presolve is also off on the triage rung, whose
	// contract is "no search at all".
	NoPresolve bool
	// AuditPresolve keeps the pre-solver's verdicts advisory: every
	// statically decided query (refuted or witnessed) is still sent to the
	// solver, the two answers are compared, and any disagreement is
	// counted on the result and flagged on the certificate; every range
	// certificate is rechecked by arithmetic. Findings under audit are
	// exactly the no-presolve findings.
	AuditPresolve bool
	// Cache, when non-nil, memoizes the engine-independent front end
	// (A-CFG, alias, taint, reachability, value flow) per (module,
	// function), sharing it between all five engines and across the
	// harness pool's concurrent per-function workers. The module must not
	// be mutated while the cache is live; repair therefore always runs
	// uncached.
	Cache *Cache
	// Span, when non-nil, is the parent observability span: each analyzed
	// function records a "fn:<name>" child with frontend/encode/search
	// stage children underneath. Nil (the default) disables tracing at
	// zero cost.
	Span *obsv.Span
	// Metrics, when non-nil, receives the run's counters and per-stage
	// latency histograms (detect.* and sat.* names).
	Metrics *obsv.Registry
}

// DefaultPHT returns the paper's Clou-pht configuration (ROB/LSQ 250/50).
func DefaultPHT() Config {
	return Config{Engine: PHT, RequireGEP: true, RequireTaint: true}
}

// DefaultSTL returns the paper's Clou-stl configuration; addr_gep cannot
// filter STL leaks (a stale pointer load may be attacker-controlled).
func DefaultSTL() Config {
	return Config{Engine: STL, RequireGEP: false, RequireTaint: true}
}

// DefaultPSF returns the Clou-psf configuration. Like STL, addr_gep
// cannot filter PSF leaks — the wrongly forwarded value may be any
// in-flight store's data, pointer or not.
func DefaultPSF() Config {
	return Config{Engine: PSF, RequireGEP: false, RequireTaint: true}
}

// DefaultIMP returns the Clou-imp configuration. The prefetcher trains
// only on dependent load pairs whose index feeds a GEP index, so the
// addr_gep filter is structural here, not an approximation.
func DefaultIMP() Config {
	return Config{Engine: IMP, RequireGEP: true, RequireTaint: true}
}

// DefaultSS returns the Clou-ss configuration.
func DefaultSS() Config {
	return Config{Engine: SS, RequireGEP: false, RequireTaint: true}
}

// DefaultConfig returns the engine's default configuration.
func DefaultConfig(e Engine) Config {
	switch e {
	case STL:
		return DefaultSTL()
	case PSF:
		return DefaultPSF()
	case IMP:
		return DefaultIMP()
	case SS:
		return DefaultSS()
	}
	return DefaultPHT()
}

// Finding is one detected transmitter with its witness context.
type Finding struct {
	Fn       string
	Class    core.Class
	Transmit int // A-CFG node of the transmitting access
	Access   int // access instruction (-1 for AT)
	Index    int // index instruction (-1 unless universal)
	// Branch is the mis-speculating branch (PHT); Store/Load the bypass
	// pair (STL); unused fields are -1.
	Branch int
	Store  int
	Load   int
	// TransientTransmit / TransientAccess report whether the witness
	// executes those instructions transiently.
	TransientTransmit bool
	TransientAccess   bool
	// Line is the source line of the transmitter.
	Line int
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s: %s transmitter at node %d (line %d)", f.Fn, f.Class, f.Transmit, f.Line)
	if f.Branch >= 0 {
		s += fmt.Sprintf(", speculation primitive: branch %d", f.Branch)
	}
	switch {
	case f.Store >= 0 && f.Transmit == f.Store:
		s += fmt.Sprintf(", silent store %d, secret feeder load %d", f.Store, f.Access)
	case f.Store >= 0:
		s += fmt.Sprintf(", bypassed store %d → stale load %d", f.Store, f.Load)
	case f.Branch < 0 && f.Load >= 0 && f.Index >= 0:
		s += fmt.Sprintf(", trained load pair: index %d → data %d, prefetch past index %d", f.Load, f.Access, f.Index)
	}
	return s
}

// Result aggregates one function's analysis.
type Result struct {
	Fn        string
	Findings  []Finding
	NodeCount int // S-AEG size (Fig. 8's x-axis)
	Duration  time.Duration
	Queries   int
	TimedOut  bool
	// BudgetHit reports that the MaxQueries step budget bound the search
	// before it finished; the findings present are valid but the absence
	// of further findings is not proven.
	BudgetHit bool
	// Fault carries the classified fault (faults taxonomy) that aborted
	// the search mid-analysis, nil for a clean run. Injected probe faults
	// land here; the supervisor reads it to pick the next ladder rung.
	Fault error
	// Rung is the degradation-ladder rung this result was decided at
	// (RungFull for a direct AnalyzeFunc call); Failure names the fault
	// kind that forced the final downgrade ("" unless Rung is
	// RungUnknown). Both are set by AnalyzeFuncLadder.
	Rung    Rung
	Failure string
	// Attempts counts ladder attempts consumed (1 for an undegraded run).
	Attempts int
	// Candidates counts the candidates each engine examines: distinct
	// universal access loads (PHT), bypassable store/load pairs (STL),
	// forwardable non-exact store/load pairs (PSF), adjacent trained
	// instance pairs (IMP), and stores with a secret feeder (SS). Pruned
	// counts those (or, for SS, their universality claim) discharged
	// statically by the range pruner.
	Candidates int
	Pruned     int
	// Pre-solver accounting. Discharged counts candidates retired without
	// any solver work: range-rule discharges (one per pruned candidate when
	// the pre-solver could certify the prune) plus window- and arch-rule
	// candidates all of whose queries the pre-solver decided — refuted,
	// witnessed, or arch-witnessed. SkippedQueries counts the solver calls
	// avoided (always 0 under audit, where decided queries still run).
	// PresolveAudited/PresolveDisagreements count audit replays and the
	// replays that contradicted a certificate.
	Discharged            int
	SkippedQueries        int
	PresolveAudited       int
	PresolveDisagreements int
	// Certificates holds the machine-checkable refutation proofs emitted
	// by the pre-solver, in candidate-enumeration order, deduplicated by
	// certificate key.
	Certificates []*presolve.Certificate
	// Per-stage wall times: FrontendTime covers A-CFG + alias + taint +
	// reachability + value flow (near zero on a cache hit; a traced run
	// times each of those stages in a child of the "frontend" span, see
	// buildFrontend), EncodeTime the S-AEG construction plus the encoding
	// it performs lazily during search (aeg.AEG.EncodeTime), SolveTime the
	// accumulated solver queries.
	FrontendTime time.Duration
	EncodeTime   time.Duration
	SolveTime    time.Duration
	// CacheHit reports whether the front end came from Config.Cache.
	CacheHit bool
	// CDCL search-effort counters harvested from the function's solver.
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	// TseitinGates counts the And/Or gates requested while encoding;
	// deterministic for a fixed query sequence and safe to pin in
	// normalized reports.
	TseitinGates int64
	// ModelCacheHits counts queries answered Sat by extending the last
	// model over newly encoded gates instead of searching.
	ModelCacheHits int64
	// Solver self-check accounting (Config.AEG.SolverMode == smt.ModeCheck):
	// verdicts replayed on a fresh reference solver, and disagreements
	// (any nonzero SolverMismatches is an incremental-soundness bug).
	SolverChecks     int64
	SolverMismatches int64
	// Graph and AEG are retained for witness rendering and repair.
	Graph *acfg.Graph
	AEG   *aeg.AEG
}

// Counts tallies findings by class, one count per static transmitter.
func (r *Result) Counts() map[core.Class]int {
	m := map[core.Class]int{}
	seen := map[[2]int]bool{}
	for _, f := range r.Findings {
		k := [2]int{f.Transmit, int(f.Class)}
		if seen[k] {
			continue
		}
		seen[k] = true
		m[f.Class]++
	}
	return m
}

// AnalyzeFunc runs one engine over one function.
func AnalyzeFunc(m *ir.Module, fn string, cfg Config) (*Result, error) {
	return AnalyzeFuncCtx(context.Background(), m, fn, cfg)
}

// AnalyzeFuncCtx is AnalyzeFunc under a context: cancellation (or the
// cfg.Timeout deadline layered on top of ctx) aborts promptly, even in
// the middle of a long solver query, and marks the result TimedOut.
func AnalyzeFuncCtx(ctx context.Context, m *ir.Module, fn string, cfg Config) (*Result, error) {
	start := time.Now()
	fnSpan := cfg.Span.Start("fn:" + fn)
	defer fnSpan.End()
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	key := cfg.InjectKey
	if key == "" {
		key = fn
	}

	var (
		fe  *frontend
		hit bool
		err error
	)
	feSpan := fnSpan.Start("frontend")
	if err = faultinject.Error(faultinject.ProbeCacheLookup, key); err == nil {
		if cfg.Cache != nil {
			fe, hit, err = cfg.Cache.frontend(m, fn, feSpan)
		} else {
			fe, err = buildFrontend(m, fn, feSpan)
		}
	}
	feSpan.End()
	if err != nil {
		return nil, err
	}
	frontendTime := time.Since(start)

	// Frontend construction is not interruptible; if it alone consumed the
	// budget, report the timeout without encoding or searching.
	if ctx.Err() != nil {
		res := &Result{
			Fn: fn, NodeCount: fe.g.Len(), Graph: fe.g,
			FrontendTime: frontendTime, CacheHit: hit,
			TimedOut: true, Duration: time.Since(start),
		}
		res.record(cfg.Metrics)
		return res, nil
	}

	encSpan := fnSpan.Start("encode")
	encodeStart := time.Now()
	if err := faultinject.Error(faultinject.ProbeAEGBuild, key); err != nil {
		encSpan.End()
		return nil, err
	}
	a := aeg.Build(fe.g, fe.al, cfg.AEG)
	encodeTime := time.Since(encodeStart)
	encSpan.End()
	if ctx.Err() != nil {
		res := &Result{
			Fn: fn, NodeCount: fe.g.Len(), Graph: fe.g, AEG: a,
			FrontendTime: frontendTime, EncodeTime: encodeTime, CacheHit: hit,
			TimedOut: true, Duration: time.Since(start),
		}
		res.record(cfg.Metrics)
		return res, nil
	}

	var pruner *dataflow.Pruner
	if !cfg.NoPrune {
		if cfg.Cache != nil {
			pruner = cfg.Cache.pruner(m)
		} else {
			pruner = dataflow.NewPruner(m)
		}
	}
	var ps *presolve.Analysis
	if !cfg.NoPresolve && !cfg.TriageOnly {
		var mr *dataflow.ModuleRanges
		if pruner != nil {
			mr = pruner.Ranges()
		}
		ps = presolve.NewAnalysis(presolve.NewFacts(fe.g, fe.al, mr), a)
	}
	res := &Result{
		Fn: fn, NodeCount: fe.g.Len(), Graph: fe.g, AEG: a,
		FrontendTime: frontendTime, EncodeTime: encodeTime, CacheHit: hit,
	}
	d := &detector{
		ctx: ctx, cfg: cfg, key: key, g: fe.g, al: fe.al, ta: fe.ta, a: a,
		res:      res,
		cfgReach: fe.cfgReach,
		flow:     fe.flow,
		pruner:   pruner,
		ps:       ps,
	}
	searchSpan := fnSpan.Start("search")
	d.run()
	searchSpan.End()
	d.res.EncodeTime += a.EncodeTime()
	d.res.Decisions, d.res.Propagations, d.res.Conflicts, d.res.Restarts = a.SolverStats()
	d.res.TseitinGates = a.EncodeStats()
	d.res.SolverChecks, d.res.SolverMismatches = a.SelfCheckStats()
	d.res.ModelCacheHits = a.ModelCacheHits()
	d.res.Duration = time.Since(start)
	d.res.record(cfg.Metrics)
	return d.res, nil
}

type detector struct {
	ctx       context.Context
	cfg       Config
	key       string // fault-injection identity
	g         *acfg.Graph
	al        *alias.Analysis
	ta        *taint.Analysis
	a         *aeg.AEG
	flow      *flowGraph
	words     []uint64 // feeders' sweep scratch, two words per node
	res       *Result
	cfgReach  func(from, to int) bool
	rows      []dataflow.BitSet       // bounded-distance rows by node ID, on first use
	fenceFree func(from, to int) bool // the graph's FenceFreeReach, on first use
	// The graph's memory nodes (loads, stores, havocs), loads, and
	// stores, in node order; listed once per detector by indexNodes.
	mems, loads, stores []*acfg.Node
	pruner              *dataflow.Pruner                 // nil under NoPrune
	prunedAcc           map[int]bool                     // pruneAccess memo, also dedups the counters
	ps                  *presolve.Analysis               // nil when the pre-solver is disabled
	certSeen            map[string]*presolve.Certificate // certificates emitted, by key
	found               map[candKey]bool                 // candidates reported, every engine's kinds
	cands               map[candKey]*candStat
	candArena           []candStat // chunked backing store for cands values
}

// candKey identifies one window/arch-rule candidate without string
// formatting (the Sprintf keys dominated the candidate loops' allocation
// profile): the pattern kind plus up to three node IDs, unused slots zero.
type candKey struct {
	kind    uint8
	a, b, c int
}

// Candidate-pattern kinds for candKey.
const (
	candUDT = uint8(iota)
	candDT
	candUCT
	candCT
	candSTL
	candPSF
	candIMP
	candSS
)

// candStat tracks one window- or arch-rule candidate's query outcomes so
// candidates the pre-solver decided outright can be counted as discharged
// at the end of the run.
type candStat struct {
	queries int
	decided int // queries refuted, witnessed, or arch-witnessed statically
}

// pruneAccess counts a universal access candidate once and asks the Prune
// hook whether its address is provably confined to its base object — in
// which case it cannot leak attacker-chosen memory and every universal
// pattern built on it is skipped before taint filtering or solver work.
func (d *detector) pruneAccess(accID int) bool {
	if d.prunedAcc == nil {
		d.prunedAcc = map[int]bool{}
	}
	if v, ok := d.prunedAcc[accID]; ok {
		return v
	}
	d.res.Candidates++
	n := d.g.Nodes[accID]
	e, v := d.pruner.InBoundsAccess(n.Instr)
	if v {
		d.prune(d.ps.InBoundsCert(n, e))
	}
	d.prunedAcc[accID] = v
	return v
}

// prune records a range-rule discharge: the trusted pruner already
// retired the candidate (or its universality claim), and c packages the
// facts it decided on (nil when the pre-solver is off). Under audit, c's
// arithmetic is checked on its own: a certificate that fails Check is a
// disagreement.
func (d *detector) prune(c *presolve.Certificate) {
	d.res.Pruned++
	if c == nil {
		return
	}
	d.res.Discharged++
	c = d.addCert(c)
	if d.cfg.AuditPresolve {
		d.res.PresolveAudited++
		if err := c.Check(); err != nil {
			d.res.PresolveDisagreements++
			c.Disagreement = true
		}
	}
}

// addCert retains a certificate on the result, in candidate-enumeration
// order, unless one with the same key was already emitted, and returns
// the retained certificate: the first one emitted per key, which is where
// an audit disagreement on a repeated query must be flagged.
func (d *detector) addCert(c *presolve.Certificate) *presolve.Certificate {
	if d.certSeen == nil {
		d.certSeen = map[string]*presolve.Certificate{}
	}
	if kept, ok := d.certSeen[c.Key]; ok {
		return kept
	}
	d.certSeen[c.Key] = c
	d.res.Certificates = append(d.res.Certificates, c)
	return c
}

// candStatFor returns (allocating on first use) a window candidate's
// stat. Stats come out of a chunked arena: one tiny heap object per
// candidate is visible in the allocation profile at donna's scale.
func (d *detector) candStatFor(key candKey) *candStat {
	if d.cands == nil {
		d.cands = map[candKey]*candStat{}
	}
	cs, ok := d.cands[key]
	if !ok {
		if len(d.candArena) == cap(d.candArena) {
			d.candArena = make([]candStat, 0, 1024)
		}
		d.candArena = d.candArena[:len(d.candArena)+1]
		cs = &d.candArena[len(d.candArena)-1]
		d.cands[key] = cs
	}
	return cs
}

func (d *detector) wantClass(c core.Class) bool {
	if len(d.cfg.Transmitters) == 0 {
		return c == core.DT || c == core.CT || c == core.UDT || c == core.UCT
	}
	for _, w := range d.cfg.Transmitters {
		if w == c {
			return true
		}
	}
	return false
}

func (d *detector) outOfBudget() bool {
	if d.res.Fault != nil {
		return true
	}
	select {
	case <-d.ctx.Done():
		d.res.TimedOut = true
		d.res.Fault = faults.FromContext(d.ctx.Err())
		return true
	default:
	}
	if d.cfg.MaxQueries > 0 && d.res.Queries >= d.cfg.MaxQueries {
		d.res.BudgetHit = true
		d.res.Fault = faults.Budgetf("%s: %d queries", d.res.Fn, d.res.Queries)
		return true
	}
	return false
}

// indexNodes lists the graph's memory nodes, loads, and stores once for
// every engine loop of this detector.
func (d *detector) indexNodes() {
	for _, n := range d.g.Nodes {
		if n.IsLoad() || n.IsStore() || n.Kind == acfg.NHavoc {
			d.mems = append(d.mems, n)
		}
		if n.IsLoad() {
			d.loads = append(d.loads, n)
		}
		if n.IsStore() {
			d.stores = append(d.stores, n)
		}
	}
}

// query runs one solver call. In triage mode (TriageOnly) it answers
// true without search: the candidate already passed every structural,
// range, and taint filter, so admitting it is the sound over-approximate
// answer of the weakest ladder rung.
func (d *detector) query(assumptions ...*smt.Expr) bool {
	if d.outOfBudget() {
		return false
	}
	if err := d.fireProbe(faultinject.ProbeSolverStep); err != nil {
		d.res.Fault = err
		if errors.Is(err, faults.ErrDeadline) {
			d.res.TimedOut = true
		}
		return false
	}
	d.res.Queries++
	if d.cfg.TriageOnly {
		return true
	}
	t0 := time.Now()
	st := d.a.CheckCtx(d.ctx, assumptions...)
	d.res.SolveTime += time.Since(t0)
	if st == sat.Unknown {
		// The query aborted mid-search: classify why before giving up.
		// An Unknown is never a verdict — in particular not UNSAT.
		cause := d.a.S.AbortCause()
		switch {
		case cause != nil && errors.Is(cause, faults.ErrBudget):
			d.res.BudgetHit = true
			d.res.Fault = cause
		case cause != nil:
			d.res.TimedOut = true
			d.res.Fault = cause
		default:
			d.res.TimedOut = true
			d.res.Fault = faults.Deadlinef("%s: query aborted", d.res.Fn)
		}
		return false
	}
	return st == sat.Sat
}

// exprs builds the solver assumptions a query's static shadow describes:
// Misspec plus TransUnder/ExecUnder in query order for a window query,
// Arch of each Exec node for a branch-free one. Built lazily — the window
// accessors encode branch windows into the solver on first use, and a
// decided query must not pay (or perturb) that encoding. Deriving the
// assumptions from q instead of taking a closure keeps the candidate
// loops from allocating a capture per probe.
func exprs(a *aeg.AEG, q presolve.Query) []*smt.Expr {
	if q.Branch < 0 {
		out := make([]*smt.Expr, len(q.Exec))
		for i, n := range q.Exec {
			out[i] = a.Arch(n)
		}
		return out
	}
	out := make([]*smt.Expr, 0, 1+len(q.Trans)+len(q.Exec))
	out = append(out, a.Misspec(q.Branch))
	for _, t := range q.Trans {
		out = append(out, a.TransUnder(q.Branch, t))
	}
	for _, e := range q.Exec {
		out = append(out, a.ExecUnder(q.Branch, e))
	}
	return out
}

// ask is every engine's decide step: the static pre-solver gets a shot at
// deciding the query before any solver work, and the solver answers what
// it leaves open. key identifies the candidate for discharge accounting;
// q is the query's static shadow and, via exprs, the recipe for the
// solver assumptions.
func (d *detector) ask(key candKey, q presolve.Query) bool {
	if d.ps == nil {
		return d.query(exprs(d.a, q)...)
	}
	cs := d.candStatFor(key)
	cs.queries++
	cert, _, verdict := d.ps.Decide(q)
	if cert == nil {
		return d.query(exprs(d.a, q)...)
	}
	cs.decided++
	cert = d.addCert(cert)
	if !d.cfg.AuditPresolve {
		// Skipped queries consume no solver budget: the decision is a
		// proof, not a search.
		d.res.SkippedQueries++
		return verdict
	}
	// Audit replay: run the solver anyway and return its verdict, so the
	// audited run's findings match the no-presolve run exactly. Aborted
	// queries (budget, fault, timeout) are not evidence either way and
	// not counted.
	got := d.query(exprs(d.a, q)...)
	if d.res.Fault == nil {
		d.res.PresolveAudited++
		if got != verdict {
			d.res.PresolveDisagreements++
			cert.Disagreement = true
		}
	}
	return got
}

// report records a confirmed candidate: it is marked found, so no engine
// loop searches it again, and its finding is appended with the function
// and the transmitter's source line filled in.
func (d *detector) report(key candKey, f Finding) {
	d.found[key] = true
	f.Fn = d.res.Fn
	f.Line = line(d.g.Nodes[f.Transmit])
	d.res.Findings = append(d.res.Findings, f)
}

// fireProbe consults the solver-step injection probe (panics from it are
// the supervisor's responsibility to recover).
func (d *detector) fireProbe(probe string) error {
	return faultinject.Error(probe, d.key)
}

func (d *detector) run() {
	d.indexNodes()
	d.found = map[candKey]bool{}
	switch d.cfg.Engine {
	case PHT:
		d.runPHT()
	case STL, PSF:
		d.runForwarding()
	case IMP:
		d.runIMP()
	case SS:
		d.runSS()
	}
	// A window candidate whose every issued query the pre-solver decided
	// needed no solver work at all: count it discharged. (Map iteration
	// order is irrelevant to a sum.)
	for _, cs := range d.cands {
		if cs.queries > 0 && cs.queries == cs.decided {
			d.res.Discharged++
		}
	}
	sort.Slice(d.res.Findings, func(i, j int) bool {
		a, b := d.res.Findings[i], d.res.Findings[j]
		if a.Class.Rank() != b.Class.Rank() {
			return a.Class.Rank() > b.Class.Rank()
		}
		return a.Transmit < b.Transmit
	})
}

// feed is one edge of a feeder relation: load src's value reaches one of
// the target's defs, crossing a gep index hop (the addr_gep signal of
// §5.2) on some reaching path when gep is set.
type feed struct {
	src int32
	gep bool
}

// feeders is the (data.rf)* relation every engine classifies by: per
// target node ID, the sources whose value reaches one of the target's
// defs, in srcs order, never the target itself. Sources are taken 64 at
// a time, one bit each: one forward sweep of the value-flow graph gives
// every node the block's sources that reach it (and those that reach it
// through a gep index hop), and a target's feeds are the bits of its
// defs' words ORed together, read in bit order, which is srcs order. A
// source reaching several of a target's defs so feeds it once, through a
// gep hop if any reaching path has one. The budget is honored between
// blocks; a relation cut short is partial, so callers check outOfBudget
// before reading it.
func (d *detector) feeders(srcs, targets []*acfg.Node, defs func(*acfg.Node) []int) [][]feed {
	n := d.g.Len()
	if len(d.words) < 2*n {
		d.words = make([]uint64, 2*n)
	}
	reach, viaGep := d.words[:n], d.words[n:2*n]
	// Each target's defs are listed once, not once per block: addrDefs
	// builds a fresh list for a havoc call.
	tdefs := make([][]int, len(targets))
	for i, t := range targets {
		tdefs[i] = defs(t)
	}
	rel := make([][]feed, n)
	for len(srcs) > 0 && !d.outOfBudget() {
		block := srcs[:min(64, len(srcs))]
		srcs = srcs[len(block):]
		first := n
		for i, s := range block {
			reach[s.ID] |= 1 << i
			first = min(first, int(d.flow.pos[s.ID]))
		}
		d.flow.sweep(reach, viaGep, first)
		for i, t := range targets {
			var r, g uint64
			for _, def := range tdefs[i] {
				r, g = r|reach[def], g|viaGep[def]
			}
			for ; r != 0; r &= r - 1 {
				b := bits.TrailingZeros64(r)
				if s := block[b].ID; s != t.ID {
					rel[t.ID] = append(rel[t.ID], feed{src: int32(s), gep: g>>b&1 != 0})
				}
			}
		}
		clear(reach)
		clear(viaGep)
	}
	return rel
}

// steered transposes a feeder relation: per source node ID, the targets
// it feeds, in targets order — for an access load, the transmitters whose
// address it steers (the addr edges of Table 1).
func steered(rel [][]feed, targets []*acfg.Node) [][]int {
	out := make([][]int, len(rel))
	for _, t := range targets {
		for _, f := range rel[t.ID] {
			out[f.src] = append(out[f.src], t.ID)
		}
	}
	return out
}

// valueDefs returns the defining nodes of a node's first operand: a
// branch's condition, a store's data.
func valueDefs(n *acfg.Node) []int {
	if len(n.ArgDefs) == 0 {
		return nil
	}
	return n.ArgDefs[0]
}

// runPHT searches for transmitters steered through control-flow
// mis-speculation: the rf-NI violation shape where a branch window makes
// the transmitter execute transiently, leaking its data-dependent address
// into xstate an observer probes.
func (d *detector) runPHT() {
	// One relation read two ways: by access, its index feeders; by index
	// source, the transmitters it steers.
	feeds := d.feeders(d.loads, d.mems, addrDefs)
	steers := steered(feeds, d.mems)
	branches := d.a.Branches()
	// Query slices share these scratch arrays across the candidate loops:
	// the pre-solver copies anything it retains, so a fresh slice literal
	// per probe is pure allocation churn.
	var qt, qe [2]int

	// Universal data transmitters.
	if d.wantClass(core.UDT) {
		for _, acc := range d.loads {
			accID, ts := acc.ID, steers[acc.ID]
			if len(ts) == 0 {
				continue
			}
			if d.outOfBudget() {
				return
			}
			if d.pruneAccess(accID) {
				continue
			}
			if d.cfg.RequireTaint && !d.ta.AddressControlled(d.g.Nodes[accID]) {
				continue
			}
			for _, e := range feeds[accID] {
				if d.cfg.RequireGEP && !e.gep {
					continue
				}
				for _, tID := range ts {
					key := candKey{kind: candUDT, a: tID, b: accID}
					if d.found[key] {
						continue
					}
					for _, b := range branches {
						if !d.a.InWindow(b, tID) || !d.a.InWindow(b, accID) {
							continue
						}
						qt[0], qt[1], qe[0] = tID, accID, int(e.src)
						q := presolve.Query{Branch: b, Trans: qt[:2], Exec: qe[:1]}
						if d.ask(key, q) {
							d.report(key, Finding{
								Class:    core.UDT,
								Transmit: tID, Access: accID, Index: int(e.src),
								Branch: b, Store: -1, Load: -1,
								TransientTransmit: true, TransientAccess: true,
							})
							break
						}
					}
				}
			}
		}
	}

	// Data transmitters (non-universal or committed-access patterns).
	if d.wantClass(core.DT) {
		for _, acc := range d.loads {
			accID, ts := acc.ID, steers[acc.ID]
			if len(ts) == 0 {
				continue
			}
			if d.outOfBudget() {
				return
			}
			for _, tID := range ts {
				if d.found[candKey{kind: candUDT, a: tID, b: accID}] {
					continue // already reported at higher severity
				}
				key := candKey{kind: candDT, a: tID, b: accID}
				if d.found[key] {
					continue
				}
				for _, b := range branches {
					if !d.a.InWindow(b, tID) {
						continue
					}
					qt[0], qe[0] = tID, accID
					q := presolve.Query{Branch: b, Trans: qt[:1], Exec: qe[:1]}
					if d.ask(key, q) {
						d.report(key, Finding{
							Class:    core.DT,
							Transmit: tID, Access: accID, Index: -1,
							Branch: b, Store: -1, Load: -1,
							TransientTransmit: true,
							TransientAccess:   d.a.InWindow(b, accID),
						})
						break
					}
				}
			}
		}
	}

	// Control patterns: the branch condition reads an access load; any
	// memory node transient under the branch transmits its outcome.
	if d.wantClass(core.CT) || d.wantClass(core.UCT) {
		d.controlPatterns(branches, feeds)
	}
}

// controlPatterns searches the control transmitters of Clou-pht, given
// the engine's access feeder relation: the loads feeding each branch's
// condition come from one more feeder sweep.
func (d *detector) controlPatterns(branches []int, feeds [][]feed) {
	bn := make([]*acfg.Node, len(branches))
	for i, b := range branches {
		bn[i] = d.g.Nodes[b]
	}
	conds := d.feeders(d.loads, bn, valueDefs)
	// Query slices share these scratch arrays (see runPHT): the
	// pre-solver copies anything it retains.
	var qt [3]int
	var qe [1]int
	// Universal control transmitters require the nested shape: an outer
	// branch b opens the window; inside it, a transient access (whose
	// address the index steers via addr_gep) feeds an inner branch c; any
	// memory node transient under b whose execution c controls transmits
	// the secret-dependent outcome (Table 1, §6.2.1).
	if d.wantClass(core.UCT) {
		// The transmitters of (b, c) — the memory nodes in b's window
		// that c reaches, in d.mems order — depend on neither the access
		// nor the index, so they are listed once per (b, c), the first
		// time an (access, index) pair gets past the filters.
		var trans []int
		for _, b := range branches {
			if d.outOfBudget() {
				return
			}
			for _, c := range branches {
				if c == b || !d.a.InWindow(b, c) {
					continue
				}
				listed := false
				for _, f := range conds[c] {
					accID := int(f.src)
					if !d.a.InWindow(b, accID) {
						continue
					}
					if d.pruneAccess(accID) {
						continue
					}
					if d.cfg.RequireTaint && !d.ta.AddressControlled(d.g.Nodes[accID]) {
						continue
					}
					for _, e := range feeds[accID] {
						if d.cfg.RequireGEP && !e.gep {
							continue
						}
						if !listed {
							trans, listed = trans[:0], true
							for _, t := range d.mems {
								if d.a.InWindow(b, t.ID) && d.cfgReach(c, t.ID) {
									trans = append(trans, t.ID)
								}
							}
						}
						for _, t := range trans {
							key := candKey{kind: candUCT, a: t, b: accID}
							if d.found[key] {
								continue
							}
							qt[0], qt[1], qt[2], qe[0] = t, accID, c, int(e.src)
							q := presolve.Query{Branch: b, Trans: qt[:3], Exec: qe[:1]}
							if d.ask(key, q) {
								d.report(key, Finding{
									Class:    core.UCT,
									Transmit: t, Access: accID, Index: int(e.src),
									Branch: b, Store: -1, Load: -1,
									TransientTransmit: true, TransientAccess: true,
								})
							}
						}
					}
				}
			}
		}
	}
	if !d.wantClass(core.CT) {
		return
	}
	for _, b := range branches {
		if d.outOfBudget() {
			return
		}
		if len(conds[b]) == 0 {
			continue
		}
		for _, t := range d.mems {
			if !d.a.InWindow(b, t.ID) {
				continue
			}
			for _, f := range conds[b] {
				accID := int(f.src)
				if d.found[candKey{kind: candUCT, a: t.ID, b: accID}] {
					continue
				}
				key := candKey{kind: candCT, a: t.ID, b: accID}
				if d.found[key] {
					continue
				}
				qt[0], qe[0] = t.ID, accID
				q := presolve.Query{Branch: b, Trans: qt[:1], Exec: qe[:1]}
				if d.ask(key, q) {
					d.report(key, Finding{
						Class:    core.CT,
						Transmit: t.ID, Access: accID, Index: -1,
						Branch: b, Store: -1, Load: -1,
						TransientTransmit: true,
					})
				}
			}
		}
	}
}

// runForwarding is the store-forwarding engines' one pair loop. Clou-stl
// searches for transmitters steered by store-to-load forwarding past an
// unresolved store (§5.3): a load l bypasses a may-aliasing po-earlier
// store s within the LSQ bound, returning stale attacker-controlled data
// that steers a later transmitter. Clou-psf searches for a mispredicted
// alias forward: a load l with an in-flight po-earlier store s that does
// NOT have to alias it may be predicted to, transiently returning s's
// data. The engines differ only in the pair filter (forwardPair) and the
// candidate kind. Every finding is UDT: the value the load returns — stale
// memory for STL, the store's data for PSF — is an integer or a pointer
// (the IR verifier admits no other load or store type), and either may be
// attacker-controlled (§5.3).
func (d *detector) runForwarding() {
	psf := d.cfg.Engine == PSF
	kind := candSTL
	if psf {
		kind = candPSF
	}
	pairs, ok := d.forwardPairs(psf)
	if !ok {
		return
	}

	// The transmitters each stale (or mispredicted) load steers, in mems
	// order: one feeder sweep over the pairs' distinct loads.
	var fwd []*acfg.Node
	fwdSeen := map[int]bool{}
	for _, p := range pairs {
		if !fwdSeen[p.l] {
			fwdSeen[p.l] = true
			fwd = append(fwd, d.g.Nodes[p.l])
		}
	}
	steers := steered(d.feeders(fwd, d.mems, addrDefs), d.mems)

	// Scratch for the queries' node sets: the pre-solver copies anything
	// it retains, so a fresh slice literal per probe is pure churn.
	var qn [3]int
	for _, p := range pairs {
		if d.outOfBudget() {
			return
		}
		// A transmitter is never its own load (steered lists no
		// self-feeds), so the load's row holds exactly the transmitters
		// reachable from it within the Wsize bound. A load that steers
		// nothing needs no row.
		if len(steers[p.l]) == 0 {
			continue
		}
		row := d.near(d.g.Nodes[p.l])
		for _, tID := range steers[p.l] {
			if !row.Has(tID) {
				continue
			}
			// An lfence drains the store buffer: nothing is left to bypass
			// or forward when every s→t path crosses one.
			if d.fenceBetween(p.s, tID) {
				continue
			}
			if !d.wantClass(core.UDT) {
				continue
			}
			key := candKey{kind: kind, a: p.s, b: p.l, c: tID}
			if d.found[key] {
				continue
			}
			qn[0], qn[1], qn[2] = p.s, p.l, tID
			if d.ask(key, presolve.Query{Branch: -1, Exec: qn[:3]}) {
				d.report(key, Finding{
					Class:    core.UDT,
					Transmit: tID, Access: p.l, Index: -1,
					Branch: -1, Store: p.s, Load: p.l,
					TransientTransmit: true, TransientAccess: true,
				})
			}
		}
	}
}

// fwdPair is one (store, load) candidate pair of the forwarding engines.
type fwdPair struct{ s, l int }

// forwardPairs lists the pairs forwardPair admits, store by store and,
// per store, in ascending load order — the order a stores × loads scan
// visits them. A store's candidate loads are the loads in its row: a load
// is po-later than the store and within the LSQ bound exactly when some
// path of at most LSQ hops leads there. ok is false when the budget ran
// out between stores.
func (d *detector) forwardPairs(psf bool) (pairs []fwdPair, ok bool) {
	loadMask := dataflow.NewBitSet(d.g.Len())
	for _, l := range d.loads {
		loadMask.Set(l.ID)
	}
	for _, s := range d.stores {
		if d.outOfBudget() {
			return pairs, false
		}
		for w, word := range d.near(s) {
			word &= loadMask[w]
			for word != 0 {
				l := d.g.Nodes[w*64+bits.TrailingZeros64(word)]
				word &= word - 1
				if d.forwardPair(psf, s, l) {
					pairs = append(pairs, fwdPair{s.ID, l.ID})
				}
			}
		}
	}
	return pairs, true
}

// forwardPair is the store-forwarding engines' pair filter over a
// po-ordered (store, load) within the LSQ bound, counting the candidates
// it admits. Clou-stl keeps may-aliasing pairs and prunes provably
// disjoint ones. Clou-psf keeps every pair except must-alias-exact ones
// (the forward would be architecturally correct), and does NOT prune
// disjoint pairs (misprediction is exactly what makes them dangerous).
func (d *detector) forwardPair(psf bool, s, l *acfg.Node) bool {
	if psf {
		if mustAliasExact(s, l) {
			return false
		}
		d.res.Candidates++
		return true
	}
	if !d.al.MayAliasTransient(s, l) {
		return false
	}
	d.res.Candidates++
	if se, le, ok := d.pruner.DisjointPair(s.Instr, l.Instr); ok {
		d.prune(d.ps.DisjointCert(s, l, se, le))
		return false
	}
	return true
}

// near returns (building on first use) a store's or a load's row: the
// nodes within Opts.LSQ hops of a store (its bypass range) or Opts.Wsize
// hops of a load (its transmitter window), the source included. The
// engines never ask for an exact distance, and never for a store's window
// or a load's bypass range, so one bitset per source is the whole answer.
func (d *detector) near(n *acfg.Node) dataflow.BitSet {
	if d.rows == nil {
		d.rows = make([]dataflow.BitSet, d.g.Len())
	}
	if d.rows[n.ID] == nil {
		bound := d.a.Opts.Wsize
		if n.IsStore() {
			bound = d.a.Opts.LSQ
		}
		d.rows[n.ID] = d.g.BoundedRow(n.ID, bound)
	}
	return d.rows[n.ID]
}

// fenceBetween reports whether every path from a to b crosses an lfence:
// one probe of the graph's fence-free closure, built on first use and
// shared by every engine run over the same graph.
func (d *detector) fenceBetween(a, b int) bool {
	if d.fenceFree == nil {
		d.fenceFree = d.g.FenceFreeReach()
	}
	return !d.fenceFree(a, b)
}

func line(n *acfg.Node) int {
	if n.Instr != nil {
		return n.Instr.Line
	}
	return 0
}
