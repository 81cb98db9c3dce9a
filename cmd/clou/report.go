package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"lcm/internal/detect"
	"lcm/internal/harness"
	"lcm/internal/ir"
	"lcm/internal/obsv"
)

// analyzeAll runs the parallel detection sweep over fns under one root
// span, returning per-function results and errors in input order. Each
// function goes through the fault-tolerant supervisor, so a deadline,
// budget exhaustion, or worker panic degrades that function's verdict
// down the ladder instead of losing it. The tracer and registry may be
// nil (observability disabled).
func analyzeAll(ctx context.Context, m *ir.Module, fns []string, cfg detect.Config, par int, tr *obsv.Tracer) ([]*detect.Result, []error) {
	results := make([]*detect.Result, len(fns))
	errs := make([]error, len(fns))
	root := tr.Start("clou")
	itemErrs := harness.ForEachSpanCtx(ctx, root, "detect", par, len(fns), func(i int, sp *obsv.Span) error {
		c := cfg
		c.Span = sp
		results[i], errs[i] = detect.AnalyzeFuncLadder(ctx, m, fns[i], c)
		return nil
	})
	for i, err := range itemErrs {
		if err != nil && errs[i] == nil && results[i] == nil {
			errs[i] = err
		}
	}
	root.End()
	return results, errs
}

// lastSpans indexes tr's spans by name, keeping the last started of each
// name. A function's supervisor runs its ladder rungs one after another,
// so "fn:<name>" maps to the attempt that produced its result.
func lastSpans(tr *obsv.Tracer) map[string]*obsv.Span {
	spans := map[string]*obsv.Span{}
	var walk func(s *obsv.Span)
	walk = func(s *obsv.Span) {
		spans[s.Name()] = s
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, r := range tr.Roots() {
		walk(r)
	}
	return spans
}

// frontendStages formats the stage spans under a function span's
// "frontend" child for -v: " acfg=… alias=… taint=… reach=… flow=…" on
// the run that built the frontend, " cached" on a cache hit, which
// records no stages.
func frontendStages(fnSpan *obsv.Span) string {
	var b strings.Builder
	for _, c := range fnSpan.Children() {
		if c.Name() != "frontend" {
			continue
		}
		for _, st := range c.Children() {
			fmt.Fprintf(&b, " %s=%v", st.Name(), st.Wall().Round(time.Microsecond))
		}
	}
	if b.Len() == 0 {
		return " cached"
	}
	return b.String()
}

// buildReport assembles the stable JSON run manifest from a finished
// sweep: per-function verdicts in input order, the metrics snapshot, and
// the span tree.
func buildReport(engine string, workers int, fns []string, results []*detect.Result,
	errs []error, tr *obsv.Tracer, reg *obsv.Registry, wall time.Duration) *obsv.Report {
	rep := &obsv.Report{
		Tool:    "clou",
		Version: obsv.Version,
		Engine:  engine,
		Workers: workers,
		WallNs:  wall.Nanoseconds(),
		Metrics: reg.Snapshot(),
		Spans:   obsv.SpanTree(tr),
	}
	for i, name := range fns {
		if errs[i] != nil {
			rep.Functions = append(rep.Functions, obsv.FuncReport{
				Name: name, Verdict: "error", Error: errs[i].Error(),
			})
			continue
		}
		rep.Functions = append(rep.Functions, results[i].Report())
	}
	return rep
}
