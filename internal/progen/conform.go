package progen

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"lcm/internal/campstore"
	"lcm/internal/detect"
	"lcm/internal/faults"
	"lcm/internal/harness"
	"lcm/internal/obsv"
)

// Options parameterizes a conformance run.
type Options struct {
	Seed int64
	N    int // programs to generate
	Jobs int // worker pool width (<=1 = serial)
	// Budget, when non-zero, bounds wall time: programs not started before
	// the deadline are recorded as skipped. Budgeted runs trade the
	// cross--j report-determinism guarantee for bounded CI time; leave 0
	// for byte-reproducible reports.
	Budget time.Duration
	// RegrDir, when non-empty, receives one shrunk .c regression file per
	// distinct failure (see WriteRegression for the format and
	// WriteRegressionsDeduped for what counts as distinct).
	RegrDir string
	// DegrDir, when non-empty, receives one .c file per program whose
	// verdict was decided below full ladder precision (see
	// WriteDegradation for the format).
	DegrDir string
	// Store, when non-nil, persists the campaign in a crash-safe
	// transactional store (internal/campstore). Each item is claimed
	// before analysis and completed with its itemRecord, so a killed run
	// loses at most the items in flight. Items already completed — by
	// this run's past life or by other worker processes sharing the
	// store — are replayed instead of re-analyzed; replayed items
	// re-increment the conform.* counters, so a resumed run's normalized
	// report is byte-identical to an uninterrupted one.
	Store *campstore.Store
	// Metrics and Span are optional observability sinks.
	Metrics *obsv.Registry
	Span    *obsv.Span
}

// Outcome aggregates one conformance run.
type Outcome struct {
	Programs []ProgramResult
	Failures []Failure
	Wall     time.Duration
	// Resumed counts programs whose verdict was read from the store
	// instead of analyzed by this run.
	Resumed int
}

// ProgramResult is one generated program's summary.
type ProgramResult struct {
	Index   int
	Verdict string // "leak", "clean", "fail", "unknown", "skipped", or "error"
	Counts  map[string]int
	Nodes   int
	Queries int
	Gadget  string // template name for differential subjects
	// Rung names the degradation-ladder rung the verdict was decided at
	// when below full precision ("reduced", "triage", "unknown"); Failure
	// is the fault kind that forced the downgrade.
	Rung    string
	Failure string
	Err     string
}

// Run executes the conformance harness: generate N programs under Seed,
// run every applicable oracle on each, shrink failures, and (optionally)
// write them to the regression corpus. Results are index-addressed, so
// the outcome — and the report built from it — is identical at any Jobs
// width; only Budget (a wall-clock cut) can break that.
func Run(opts Options) (*Outcome, error) {
	return RunCtx(context.Background(), opts)
}

// RunCtx is Run under a context. Cancellation stops dispatch: items never
// started are recorded with an "unknown" verdict (failure "canceled") and
// are not stored, so a resumed campaign re-runs exactly those.
func RunCtx(ctx context.Context, opts Options) (*Outcome, error) {
	start := time.Now()
	if opts.N <= 0 {
		opts.N = 1
	}
	if opts.Jobs <= 0 {
		opts.Jobs = 1
	}
	var deadline time.Time
	if opts.Budget > 0 {
		deadline = start.Add(opts.Budget)
	}
	if opts.Store != nil {
		if err := checkBinding(opts.Store, opts); err != nil {
			return nil, err
		}
		if err := opts.Store.Sync(); err != nil {
			return nil, err
		}
	}

	var resumed atomic.Int64
	results := make([]ProgramResult, opts.N)
	failures := make([][]Failure, opts.N)
	itemErrs := harness.ForEachSpanCtx(ctx, opts.Span, "conform", opts.Jobs, opts.N, func(i int, sp *obsv.Span) error {
		psp := sp.Start(fmt.Sprintf("prog-%04d", i))
		defer psp.End()
		adopt := func(rec itemRecord) {
			results[i], failures[i] = rec.Result, rec.Failures
			recordProgram(opts.Metrics, rec.Result, len(rec.Failures))
		}
		if opts.Store != nil {
			rec, ok, err := storedRecord(opts.Store, i)
			if err != nil {
				return err
			}
			if ok {
				adopt(rec)
				resumed.Add(1)
				return nil
			}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			adopt(itemRecord{Result: ProgramResult{Index: i, Verdict: "skipped", Counts: map[string]int{}}})
			return nil
		}
		rec, fromStore, err := runItem(opts, i)
		if err != nil {
			return err
		}
		adopt(rec)
		if fromStore {
			resumed.Add(1)
		}
		return nil
	})
	for i, err := range itemErrs {
		if err == nil {
			continue
		}
		if faults.IsFault(err) {
			// The item died of a classified fault before producing a result
			// (canceled dispatch, a panic the ladder could not absorb). It
			// is accounted for as a sound unknown — never silently dropped —
			// and deliberately not stored, so resume re-runs it.
			results[i] = ProgramResult{
				Index:   i,
				Verdict: "unknown",
				Counts:  map[string]int{},
				Failure: faults.Kind(err),
				Err:     err.Error(),
			}
			recordProgram(opts.Metrics, results[i], 0)
			failures[i] = nil
			continue
		}
		return nil, fmt.Errorf("prog-%04d: %w", i, err)
	}

	out := &Outcome{Programs: results, Wall: time.Since(start), Resumed: int(resumed.Load())}
	for _, fs := range failures {
		out.Failures = append(out.Failures, fs...)
	}
	if opts.RegrDir != "" {
		if _, err := WriteRegressionsDeduped(opts.RegrDir, out.Failures); err != nil {
			return out, err
		}
	}
	return out, nil
}

// analyzeOne generates, checks, and (on failure) shrinks campaign item
// i — the per-item work shared by the in-memory run, the store-backed
// RunCtx path, and the RunStore worker loop. Analysis faults are
// folded into the result's verdict by the ladder; a returned error is
// a genuine environmental failure (e.g. the degradation corpus is
// unwritable).
func analyzeOne(opts Options, i int) (ProgramResult, []Failure, error) {
	r := ProgramResult{Index: i, Counts: map[string]int{}}
	p, err := Generate(opts.Seed, i)
	if err != nil {
		r.Verdict = "error"
		r.Err = err.Error()
		return r, []Failure{{Oracle: "compile", Detail: err.Error(), Src: "", Seed: opts.Seed, Index: i}}, nil
	}
	if p.Gadget != nil {
		r.Gadget = p.Gadget.Name
	}
	v, fails := Check(p)
	r.Counts = v.Counts
	r.Nodes, r.Queries = v.Nodes, v.Queries
	if v.Rung != detect.RungFull {
		r.Rung = v.Rung.String()
		r.Failure = v.Failure
	}
	switch {
	case len(fails) > 0:
		r.Verdict = "fail"
		r.Err = fails[0].Error()
		for fi := range fails {
			fails[fi].Src = ShrinkFailure(fails[fi])
		}
	case v.Unknown():
		r.Verdict = "unknown"
	case v.Leak:
		r.Verdict = "leak"
	default:
		r.Verdict = "clean"
	}
	if r.Rung != "" && opts.DegrDir != "" {
		if err := WriteDegradation(opts.DegrDir, p.Src, r, opts.Seed); err != nil {
			return r, fails, err
		}
	}
	return r, fails, nil
}

// recordProgram folds one program result into the conform.* counters. The
// live path and the store-replay path both go through here, so a resumed
// run's metrics snapshot matches an uninterrupted run exactly.
func recordProgram(reg *obsv.Registry, r ProgramResult, nfails int) {
	switch r.Verdict {
	case "error":
		reg.Counter("conform.failures").Add(1)
		return
	case "skipped":
		reg.Counter("conform.skipped").Add(1)
		return
	}
	reg.Counter("conform.generated").Add(1)
	if r.Gadget != "" {
		reg.Counter("conform.gadgets").Add(1)
	}
	if r.Rung != "" {
		reg.Counter("conform.degraded").Add(1)
	}
	switch r.Verdict {
	case "fail":
		reg.Counter("conform.failures").Add(int64(nfails))
	case "leak":
		reg.Counter("conform.leaky").Add(1)
	case "clean":
		reg.Counter("conform.clean").Add(1)
	case "unknown":
		reg.Counter("conform.unknown").Add(1)
	}
}

// ShrinkFailure minimizes a failure's source with the ddmin shrinker,
// using "the same oracle still fails" as the predicate. Oracles without a
// source-only replay (diff-enum needs the paired litmus rendering) are
// returned unshrunk.
func ShrinkFailure(f Failure) string {
	switch f.Oracle {
	case "diff-enum":
		return f.Src
	}
	return Shrink(f.Src, func(src string) bool {
		return RunOracle(f.Oracle, src, "victim") != nil
	})
}

// WriteRegression records a shrunk failure as a replayable .c file. The
// header comment carries the oracle name, seed, and index; the regression
// replay test parses it back and re-runs the oracle.
func WriteRegression(dir string, f Failure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-idx%d.c", f.Oracle, f.Seed, f.Index)
	detail := strings.ReplaceAll(f.Detail, "\n", "\n// ")
	body := fmt.Sprintf("// progen regression: oracle=%s seed=%d index=%d\n// %s\n%s",
		f.Oracle, f.Seed, f.Index, detail, f.Src)
	return os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644)
}

// ParseRegression extracts the oracle name from a regression file header.
func ParseRegression(data []byte) (oracle string, src string, err error) {
	s := string(data)
	const tag = "// progen regression: oracle="
	if !strings.HasPrefix(s, tag) {
		return "", "", fmt.Errorf("missing regression header")
	}
	rest := s[len(tag):]
	end := strings.IndexAny(rest, " \n")
	if end < 0 {
		return "", "", fmt.Errorf("malformed regression header")
	}
	return rest[:end], s, nil
}

// Degradation is one parsed degradation-regression entry: a program whose
// verdict was decided below full ladder precision, plus how to replay the
// downgrade. Replay "budget" entries carry the query/conflict budgets
// that deterministically force the descent; replay "none" entries (the
// usual organic case — wall-clock deadlines are not reproducible) only
// promise that the program still compiles and the ladder still decides
// it without an error.
type Degradation struct {
	Rung         string
	Fault        string
	Verdict      string
	Replay       string // "budget" or "none"
	MaxQueries   int
	MaxConflicts int64
	Src          string
}

// WriteDegradation records a ladder-degraded program as a replayable .c
// file, mirroring the regression corpus format. Organic downgrades are
// deadline-caused and hence written replay=none.
func WriteDegradation(dir, src string, r ProgramResult, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-idx%d.c", r.Rung, seed, r.Index)
	body := fmt.Sprintf("// progen degradation: rung=%s fault=%s verdict=%s replay=none seed=%d index=%d\n%s",
		r.Rung, r.Failure, r.Verdict, seed, r.Index, src)
	return os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644)
}

// ParseDegradation inverts WriteDegradation (and accepts the curated
// replay=budget entries with maxqueries=/maxconflicts= fields).
func ParseDegradation(data []byte) (Degradation, error) {
	s := string(data)
	const tag = "// progen degradation: "
	if !strings.HasPrefix(s, tag) {
		return Degradation{}, fmt.Errorf("missing degradation header")
	}
	nl := strings.IndexByte(s, '\n')
	if nl < 0 {
		return Degradation{}, fmt.Errorf("malformed degradation header")
	}
	d := Degradation{Replay: "none", Src: s[nl+1:]}
	for _, kv := range strings.Fields(s[len(tag):nl]) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Degradation{}, fmt.Errorf("malformed degradation field %q", kv)
		}
		var err error
		switch k {
		case "rung":
			d.Rung = v
		case "fault":
			d.Fault = v
		case "verdict":
			d.Verdict = v
		case "replay":
			d.Replay = v
		case "maxqueries":
			d.MaxQueries, err = strconv.Atoi(v)
		case "maxconflicts":
			d.MaxConflicts, err = strconv.ParseInt(v, 10, 64)
		case "seed", "index":
			// informational
		default:
			return Degradation{}, fmt.Errorf("unknown degradation field %q", k)
		}
		if err != nil {
			return Degradation{}, fmt.Errorf("degradation field %q: %w", kv, err)
		}
	}
	if d.Rung == "" {
		return Degradation{}, fmt.Errorf("degradation header missing rung")
	}
	return d, nil
}

// ReplayDegradation re-runs a degradation entry's program through the
// ladder under the entry's recorded budgets and returns the combined
// (worst-rung, verdict) pair across both engines — the values a
// replay=budget entry pins exactly.
func ReplayDegradation(d Degradation) (rung string, verdict string, err error) {
	m, err := compileSrc(d.Src)
	if err != nil {
		return "", "", err
	}
	worst := detect.RungFull
	leak := false
	for _, e := range []detect.Engine{detect.PHT, detect.STL} {
		cfg := conformCfg(e)
		cfg.MaxQueries = d.MaxQueries
		cfg.MaxConflicts = d.MaxConflicts
		// Budget entries pin how the ladder degrades under a raw solver
		// budget; the pre-solver legitimately shrinks the query stream
		// (the same budget then no longer trips), so replay disables it
		// to keep the pinned rungs meaningful.
		cfg.NoPresolve = true
		res, rerr := detect.AnalyzeFuncLadder(context.Background(), m, "victim", cfg)
		if rerr != nil {
			return "", "", rerr
		}
		if res.Rung > worst {
			worst = res.Rung
		}
		if res.Rung != detect.RungUnknown && len(res.Findings) > 0 {
			leak = true
		}
	}
	switch {
	case leak:
		verdict = "leak"
	case worst == detect.RungUnknown:
		verdict = "unknown"
	default:
		verdict = "clean"
	}
	return worst.String(), verdict, nil
}

// Report renders the outcome as the shared normalized run manifest, the
// same schema detection runs emit (internal/obsv): one FuncReport per
// generated program plus the metrics snapshot and span tree.
func (o *Outcome) Report(seed int64, workers int, reg *obsv.Registry, tr *obsv.Tracer) *obsv.Report {
	rep := &obsv.Report{
		Tool:    "conform",
		Version: obsv.Version,
		Engine:  fmt.Sprintf("seed=%d", seed),
		Workers: workers,
		WallNs:  o.Wall.Nanoseconds(),
		Metrics: reg.Snapshot(),
		Spans:   obsv.SpanTree(tr),
	}
	for _, r := range o.Programs {
		fr := obsv.FuncReport{
			Name:    fmt.Sprintf("g%04d", r.Index),
			Verdict: r.Verdict,
			Rung:    r.Rung,
			Failure: r.Failure,
			Nodes:   r.Nodes,
			Queries: r.Queries,
			Error:   r.Err,
		}
		if r.Gadget != "" {
			fr.Name += ":" + r.Gadget
		}
		if len(r.Counts) > 0 {
			fr.Counts = map[string]int{}
			for k, v := range r.Counts {
				fr.Counts[k] = v
			}
		}
		rep.Functions = append(rep.Functions, fr)
	}
	sort.SliceStable(rep.Functions, func(i, j int) bool { return rep.Functions[i].Name < rep.Functions[j].Name })
	return rep
}
