package obsv

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
)

// Version identifies the report schema / toolchain generation. Bump it
// when the JSON shape changes; the golden tests pin the serialized form.
const Version = "0.9.0"

// Report is the machine-readable run manifest shared by clou -report,
// lcmlint -report, and cmd/benchjson. All timing-valued fields end in
// "_ns" (or live in HistStat's ns fields) so Normalize can zero exactly
// the volatile parts, leaving a byte-stable document for goldens and
// cross--j comparison.
type Report struct {
	Tool    string `json:"tool"`
	Version string `json:"version"`
	Engine  string `json:"engine,omitempty"`
	Workers int    `json:"workers"`
	WallNs  int64  `json:"wall_ns"`

	Functions []FuncReport `json:"functions"`
	Metrics   SnapshotData `json:"metrics"`
	Spans     []SpanReport `json:"spans,omitempty"`
}

// FuncReport is one analyzed function (or lint unit) in a Report.
type FuncReport struct {
	Name    string `json:"name"`
	Verdict string `json:"verdict"` // "leak", "clean", "timeout", "unknown", or "error"
	// Rung is the degradation-ladder rung the verdict was decided at
	// ("reduced", "triage", "unknown"); empty means full precision.
	// Failure names the failure-taxonomy kind ("deadline", "budget",
	// "panic", "canceled") that forced the final downgrade, when any.
	Rung    string `json:"rung,omitempty"`
	Failure string `json:"failure,omitempty"`

	Findings []FindingReport `json:"findings,omitempty"`
	// Counts tallies findings by class name (one per static transmitter).
	Counts map[string]int `json:"counts,omitempty"`
	// Lint carries constant-time lint findings (lcmlint units only).
	Lint []string `json:"lint,omitempty"`

	Nodes      int `json:"nodes,omitempty"`
	Queries    int `json:"queries,omitempty"`
	Candidates int `json:"candidates,omitempty"`
	Pruned     int `json:"pruned,omitempty"`
	// Pre-solver accounting: candidates discharged statically, solver
	// queries skipped, audit replays run, and audit disagreements found.
	Discharged    int  `json:"discharged,omitempty"`
	Skipped       int  `json:"skipped_queries,omitempty"`
	Audited       int  `json:"audited,omitempty"`
	Disagreements int  `json:"disagreements,omitempty"`
	MemoHits      int  `json:"memo_hits,omitempty"`
	CacheHit      bool `json:"cache_hit,omitempty"`
	TimedOut      bool `json:"timed_out,omitempty"`
	// Incremental-solving accounting: summed assumption-prefix reuse
	// depth, root-level unit promotions, Tseitin gates requested, and
	// gates shared through the hash-cons table. Deterministic for a fixed
	// query sequence, hence pinned by the goldens like the other counters.
	PrefixLits    int64 `json:"prefix_lits,omitempty"`
	RootUnits     int64 `json:"root_units,omitempty"`
	TseitinGates  int64 `json:"tseitin_gates,omitempty"`
	TseitinShared int64 `json:"tseitin_shared,omitempty"`
	// Queries answered Sat by extending the previous model over newly
	// encoded gates instead of searching (the smt model cache).
	ModelHits int64 `json:"model_hits,omitempty"`
	// Solver self-check accounting (-solver check): verdicts replayed on
	// a fresh reference solver and disagreements observed (must be 0).
	SolverChecks int64 `json:"solver_checks,omitempty"`
	Mismatches   int64 `json:"solver_mismatches,omitempty"`

	DurationNs int64 `json:"duration_ns"`
	FrontendNs int64 `json:"frontend_ns,omitempty"`
	EncodeNs   int64 `json:"encode_ns,omitempty"`
	SolveNs    int64 `json:"solve_ns,omitempty"`
	// Frontend sub-stage timings (the perf-attribution breakdown of the
	// frontend_ns total): points-to analysis, value-flow graph build, and
	// the pre-solver's shared fact base. Zero on cache hits.
	AliasNs         int64 `json:"alias_ns,omitempty"`
	FlowNs          int64 `json:"flow_ns,omitempty"`
	PresolveFactsNs int64 `json:"presolve_facts_ns,omitempty"`

	Error string `json:"error,omitempty"`
}

// FindingReport is one detected transmitter in serialized form.
type FindingReport struct {
	Class             string `json:"class"`
	Transmit          int    `json:"transmit"`
	Access            int    `json:"access"`
	Index             int    `json:"index"`
	Branch            int    `json:"branch"`
	Store             int    `json:"store"`
	Load              int    `json:"load"`
	Line              int    `json:"line"`
	TransientTransmit bool   `json:"transient_transmit,omitempty"`
	TransientAccess   bool   `json:"transient_access,omitempty"`
}

// SpanReport is the serialized form of one span subtree.
type SpanReport struct {
	Name     string       `json:"name"`
	WallNs   int64        `json:"wall_ns"`
	SelfNs   int64        `json:"self_ns"`
	Children []SpanReport `json:"children,omitempty"`
}

// SpanTree serializes a tracer's root spans.
func SpanTree(t *Tracer) []SpanReport {
	roots := t.Roots()
	if len(roots) == 0 {
		return nil
	}
	out := make([]SpanReport, len(roots))
	for i, s := range roots {
		out[i] = spanReport(s)
	}
	return out
}

func spanReport(s *Span) SpanReport {
	r := SpanReport{Name: s.Name(), WallNs: s.Wall().Nanoseconds(), SelfNs: s.Self().Nanoseconds()}
	for _, c := range s.Children() {
		r.Children = append(r.Children, spanReport(c))
	}
	return r
}

// Normalize strips the volatile parts of a report in place — every
// ns-valued duration plus the worker count — and sorts span children by
// name, so two runs of the same deterministic workload (at any worker
// count) serialize to identical bytes. Counts, verdicts, findings, and
// counter values are deliberately untouched: those must already be
// deterministic, and the golden tests exist to prove it.
func (r *Report) Normalize() {
	r.WallNs = 0
	r.Workers = 0
	for i := range r.Functions {
		f := &r.Functions[i]
		f.DurationNs = 0
		f.FrontendNs = 0
		f.EncodeNs = 0
		f.SolveNs = 0
		f.AliasNs = 0
		f.FlowNs = 0
		f.PresolveFactsNs = 0
	}
	for name, h := range r.Metrics.Histograms {
		h.SumNs, h.MinNs, h.MaxNs = 0, 0, 0
		r.Metrics.Histograms[name] = h
	}
	// Campaign-store counters (store.*) measure how the run executed —
	// appends, waves, compactions, crash reclaims — not what it
	// concluded, so resumed, re-sharded, and single-process campaigns
	// legitimately differ on them. Strip them with the other volatiles.
	for name := range r.Metrics.Counters {
		if strings.HasPrefix(name, "store.") {
			delete(r.Metrics.Counters, name)
		}
	}
	normalizeSpans(r.Spans)
}

func normalizeSpans(spans []SpanReport) {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Name < spans[j].Name })
	for i := range spans {
		spans[i].WallNs = 0
		spans[i].SelfNs = 0
		normalizeSpans(spans[i].Children)
	}
}

// WriteJSON marshals the report with indentation and a trailing newline.
func (r *Report) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteFile writes the report to path ("-" means stdout).
func (r *Report) WriteFile(path string) error {
	if path == "-" {
		return r.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
