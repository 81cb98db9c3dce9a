package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"lcm/internal/acfg"
	"lcm/internal/aeg"
	"lcm/internal/alias"
	"lcm/internal/dataflow"
	"lcm/internal/ir"
	"lcm/internal/lower"
	"lcm/internal/minic"
	"lcm/internal/obsv"
	"lcm/internal/presolve"
	"lcm/internal/taint"
)

// layerOf names the layer a span of a traced sample times. The harness,
// detect, and progen record their own spans ("fn:<function>" with
// "frontend", "encode", and "search" children; "baseline"; "prog-<index>");
// the probes name theirs by layer already.
func layerOf(span string) string {
	switch {
	case strings.HasPrefix(span, "fn:"):
		return "detect.analyze"
	case strings.HasPrefix(span, "prog-"):
		return "progen.item"
	case span == "frontend" || span == "encode" || span == "search":
		return "detect." + span
	case span == "baseline":
		return "baseline.analyze"
	}
	return span
}

// layerTotals sums, per layer, the wall time of every span of a traced
// sample, and keeps each layer's longest single span.
func layerTotals(tr *obsv.Tracer) (total, longest map[string]time.Duration) {
	total, longest = map[string]time.Duration{}, map[string]time.Duration{}
	var walk func(s *obsv.Span)
	walk = func(s *obsv.Span) {
		l, d := layerOf(s.Name()), s.Wall()
		total[l] += d
		longest[l] = max(longest[l], d)
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, r := range tr.Roots() {
		walk(r)
	}
	return total, longest
}

// prober times each pipeline layer's public entry point on the
// workload's functions, one span per call. The layers before the S-AEG
// run inside detect.AnalyzeFunc under a single "frontend" span, so the
// traced sample also calls each of them once itself; that work lies
// outside the harness's spans. It also counts the layers' sizes and the
// bytes alias analysis and the S-AEG allocate.
type prober struct {
	root *obsv.Span

	instrs     int    // IR instructions lowered
	acfgNodes  int    // A-CFG nodes built
	aliasBytes uint64 // bytes alias analysis allocated
	aegBytes   uint64 // bytes aeg.Build allocated
}

// do runs f inside a span named name under parent.
func do(parent *obsv.Span, name string, f func()) {
	sp := parent.Start(name)
	f()
	sp.End()
}

// item opens the span every probe of one input (a library, a litmus
// case, a generated program) records under.
func (p *prober) item(name string) *obsv.Span { return p.root.Start("item:" + name) }

// source probes the layers of one source's functions under an item span.
func (p *prober) source(name, src string, fns []string) error {
	sp := p.item(name)
	defer sp.End()
	if err := p.module(sp, src, fns); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// module parses and lowers src, computes the range analyses of every
// function as the detector's pruner does on demand, and probes each of
// fns in turn, all under parent.
func (p *prober) module(parent *obsv.Span, src string, fns []string) error {
	var (
		f   *minic.File
		m   *ir.Module
		err error
	)
	do(parent, "minic.parse", func() { f, err = minic.Parse(src) })
	if err != nil {
		return err
	}
	do(parent, "lower.module", func() { m, err = lower.Module(f) })
	if err != nil {
		return err
	}
	var mr *dataflow.ModuleRanges
	do(parent, "dataflow.ranges", func() {
		mr = dataflow.NewModuleRanges(m)
		for _, fn := range m.Funcs {
			mr.ForFunc(fn)
		}
	})
	for _, fn := range m.Funcs {
		for _, b := range fn.Blocks {
			p.instrs += len(b.Instrs)
		}
	}
	for _, fn := range fns {
		if err := p.function(parent, m, fn, mr); err != nil {
			return err
		}
	}
	return nil
}

// function calls each frontend layer once on fn, in the order the
// detector's frontend does, then builds the S-AEG at default options.
func (p *prober) function(parent *obsv.Span, m *ir.Module, fn string, mr *dataflow.ModuleRanges) error {
	var (
		g   *acfg.Graph
		err error
	)
	do(parent, "acfg.build", func() { g, err = acfg.Build(m, fn, acfg.Options{}) })
	if err != nil {
		return err
	}
	p.acfgNodes += g.Len()
	var al *alias.Analysis
	p.aliasBytes += allocated(func() { do(parent, "alias.analyze", func() { al = alias.Analyze(g) }) })
	do(parent, "taint.analyze", func() { taint.Analyze(g, al) })
	// The fact base builds its must-alias partition on first use.
	do(parent, "presolve.facts", func() { presolve.NewFacts(g, al, mr).Partition() })
	p.aegBytes += allocated(func() { do(parent, "aeg.build", func() { aeg.Build(g, al, aeg.Options{}) }) })
	return nil
}

// allocated returns the bytes f allocates. The benchmark reads it only in
// serial traced samples, where every allocation in the interval is f's.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
