// Package chaos drives the seeded fault-injection campaign behind `make
// chaos`: N generated programs are analyzed by all five engines through
// the fault-tolerant supervisor while an armed faultinject.Plan fires panics,
// artificial deadline exhaustion, and cancellations at every probe point.
// The campaign's contract — asserted by its test — is that the pipeline
// degrades instead of dying: zero process crashes, zero lost inputs
// (every (program, engine) pair gets a verdict), a normalized report
// byte-identical at any worker count, and every injected fault accounted
// for in the failure-taxonomy metrics.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"time"

	"lcm/internal/detect"
	"lcm/internal/faultinject"
	"lcm/internal/faults"
	"lcm/internal/harness"
	"lcm/internal/lower"
	"lcm/internal/minic"
	"lcm/internal/obsv"
	"lcm/internal/progen"
	"lcm/internal/smt"
)

// Options parameterizes a chaos campaign.
type Options struct {
	Seed      int64   // program-generator seed
	FaultSeed int64   // injection-plan seed
	N         int     // programs to generate
	Jobs      int     // worker pool width
	Rate      float64 // per-(probe, key) injection probability
	// Timeout bounds each analysis attempt. Keep it generous: organic
	// deadlines are wall-clock dependent and would break the campaign's
	// cross--j byte-identity, so only injected faults should ever fire.
	Timeout time.Duration
	Metrics *obsv.Registry
	Span    *obsv.Span
}

// Outcome is one finished campaign.
type Outcome struct {
	// Functions holds one report entry per (program, engine) pair, in
	// input order: len(engines)*N entries, none missing — the
	// zero-lost-inputs invariant.
	Functions []obsv.FuncReport
	// Plan is the armed plan after the run; its fired tallies are the
	// ground truth the taxonomy metrics must reconcile against.
	Plan *faultinject.Plan
	Wall time.Duration
}

// engines is every detection engine the campaign drives per program —
// all five, so the taxonomy engines' candidate loops (psf pair
// enumeration, imp training-window walk, ss feeder scan) take injected
// faults too, not just the pht/stl window paths.
var engines = []struct {
	name string
	mk   func() detect.Config
}{
	{"pht", detect.DefaultPHT},
	{"stl", detect.DefaultSTL},
	{"psf", detect.DefaultPSF},
	{"imp", detect.DefaultIMP},
	{"ss", detect.DefaultSS},
}

// Run executes one campaign. It arms the plan for the duration of the
// call (campaigns must not overlap; Arm panics if one is already armed).
func Run(ctx context.Context, opts Options) (*Outcome, error) {
	start := time.Now()
	if opts.N <= 0 {
		opts.N = 1
	}
	if opts.Jobs <= 0 {
		opts.Jobs = 1
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 120 * time.Second
	}
	plan := faultinject.NewPlan(opts.FaultSeed, opts.Rate)
	faultinject.Arm(plan)
	defer faultinject.Disarm()

	out := &Outcome{Functions: make([]obsv.FuncReport, len(engines)*opts.N), Plan: plan}
	itemErrs := harness.ForEachSpanCtx(ctx, opts.Span, "chaos", opts.Jobs, opts.N, func(i int, sp *obsv.Span) error {
		psp := sp.Start(fmt.Sprintf("prog-%04d", i))
		defer psp.End()
		p, err := progen.Generate(opts.Seed, i)
		if err != nil {
			return err
		}
		f, err := minic.Parse(p.Src)
		if err != nil {
			return fmt.Errorf("parse g%04d: %w", i, err)
		}
		m, err := lower.Module(f)
		if err != nil {
			return fmt.Errorf("lower g%04d: %w", i, err)
		}
		for k, e := range engines {
			cfg := e.mk()
			cfg.Timeout = opts.Timeout
			cfg.Metrics = opts.Metrics
			// The campaign drives the solver directly: the static
			// pre-solver discharges most queries, which would starve the
			// solver.step probes the fault plan targets. Its own soundness
			// has dedicated coverage (audit-presolve CI job, `presolve`
			// conformance oracle); chaos owns the fault taxonomy.
			cfg.NoPresolve = true
			// Pin the warm incremental solver (the default, but load-bearing
			// here): solver.step faults must land mid-sweep on a solver
			// carrying learnt clauses and saved phases, so the
			// campaign proves the incremental path degrades soundly too.
			cfg.AEG.SolverMode = smt.ModeIncremental
			cfg.InjectKey = fmt.Sprintf("g%04d/%s", i, e.name)
			res, err := detect.AnalyzeFuncLadder(ctx, m, p.Fn, cfg)
			if err != nil {
				return fmt.Errorf("detect g%04d/%s: %w", i, e.name, err)
			}
			fr := res.Report()
			fr.Name = fmt.Sprintf("g%04d:%s", i, e.name)
			out.Functions[len(engines)*i+k] = fr
		}
		return nil
	})
	for i, err := range itemErrs {
		if err == nil {
			continue
		}
		if !faults.IsFault(err) {
			return nil, err
		}
		// The whole item died before analysis (an injected dispatch fault
		// or a panic the ladder never saw): both engine slots get a sound
		// unknown verdict, and the fault is folded into the taxonomy
		// counters here since no supervisor observed it.
		kind := faults.Kind(err)
		for k, e := range engines {
			out.Functions[len(engines)*i+k] = obsv.FuncReport{
				Name:    fmt.Sprintf("g%04d:%s", i, e.name),
				Verdict: "unknown",
				Rung:    detect.RungUnknown.String(),
				Failure: kind,
				Error:   err.Error(),
			}
		}
		opts.Metrics.Counter("faults." + kind).Add(1)
		if errors.Is(err, faultinject.ErrInjected) {
			opts.Metrics.Counter("faults.injected." + kind).Add(1)
		}
	}
	out.Wall = time.Since(start)
	return out, nil
}

// Report renders the campaign as the shared normalized run manifest.
func (o *Outcome) Report(opts Options, reg *obsv.Registry, tr *obsv.Tracer) *obsv.Report {
	rep := &obsv.Report{
		Tool:    "chaos",
		Version: obsv.Version,
		Engine:  fmt.Sprintf("seed=%d fault-seed=%d rate=%g", opts.Seed, opts.FaultSeed, opts.Rate),
		Workers: opts.Jobs,
		WallNs:  o.Wall.Nanoseconds(),
		Metrics: reg.Snapshot(),
		Spans:   obsv.SpanTree(tr),
	}
	rep.Functions = append(rep.Functions, o.Functions...)
	return rep
}
