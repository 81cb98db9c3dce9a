package detect

import (
	"context"
	"errors"
	"fmt"

	"lcm/internal/faultinject"
	"lcm/internal/faults"
	"lcm/internal/ir"
	"lcm/internal/obsv"
)

// Rung identifies a degradation-ladder precision level. Lower rungs are
// sound over-approximations of higher ones — the shape hardware-software
// contracts give weaker contracts (Guarnieri et al.): a verdict decided
// lower on the ladder may admit more behaviors, never fewer, so a "clean"
// from a degraded rung is weaker evidence but a reported leak set always
// covers the full-precision one.
type Rung int

// The ladder, strongest first.
const (
	// RungFull is the configured full-symbolic analysis.
	RungFull Rung = iota
	// RungTriage answers solver queries optimistically at the caller's
	// own bounds: range-prune-only triage, over-approximate but cheap and
	// deterministic.
	RungTriage
	// RungUnknown is the final fallback: no analysis completed; the
	// verdict is a sound "unknown", never a silent drop.
	RungUnknown
)

func (r Rung) String() string {
	switch r {
	case RungFull:
		return "full"
	case RungTriage:
		return "triage"
	case RungUnknown:
		return "unknown"
	}
	return fmt.Sprintf("rung(%d)", int(r))
}

// triageCfg derives the RungTriage configuration: the caller's engine,
// filters and S-AEG bounds with no solver search at all. Keeping the
// caller's windows is what makes triage cover the full rung — shrinking
// them would drop transmitters — so the only budgets left are the wall
// clock and the frontend.
func triageCfg(cfg Config) Config {
	c := cfg
	c.TriageOnly = true
	c.MaxQueries = 0
	return c
}

// AnalyzeFuncLadder is the fault-tolerant analysis supervisor: it runs
// AnalyzeFuncCtx down the degradation ladder — full symbolic, then
// range-prune-only triage — retrying whenever an attempt dies of a classified fault (deadline,
// budget, panic, or an injected cancellation), and finally returns a
// sound RungUnknown verdict instead of failing. Every input therefore
// gets exactly one Result; the rung it was decided at and the fault that
// forced any downgrade ride along in Result.Rung / Result.Failure.
//
// Non-fault errors (unknown function, malformed IR) are returned as
// errors: no amount of precision loss can decide those. A parent context
// that is itself done aborts the ladder with a classified error — campaign
// cancellation must not burn the remaining rungs.
func AnalyzeFuncLadder(ctx context.Context, m *ir.Module, fn string, cfg Config) (*Result, error) {
	baseKey := cfg.InjectKey
	if baseKey == "" {
		baseKey = fn
	}
	var lastFault error
	attempts := 0
	for _, rung := range []Rung{RungFull, RungTriage} {
		if err := ctx.Err(); err != nil {
			return nil, faults.FromContext(err)
		}
		c := cfg
		if rung == RungTriage {
			c = triageCfg(cfg)
		}
		// Each rung makes fresh injection decisions: a fault that killed
		// the full attempt does not automatically kill the retry.
		c.InjectKey = fmt.Sprintf("%s@r%d", baseKey, int(rung))
		attempts++
		res, err := attemptRung(ctx, m, fn, c)
		fault := classifyAttempt(res, err)
		if fault == nil {
			res.Rung = rung
			res.Attempts = attempts
			if rung > RungFull {
				recordDegraded(cfg.Metrics, rung)
			}
			return res, nil
		}
		if !faults.IsFault(fault) {
			return nil, fault
		}
		recordFault(cfg.Metrics, fault)
		lastFault = fault
		if faults.IsOperational(fault) {
			// Storage-layer kinds (io, corrupt): descending the ladder
			// cannot fix a disk, and the campaign store's lease protocol
			// already re-runs the item safely after recovery. Fall through
			// to the sound Unknown verdict carrying the kind.
			break
		}
		if ctx.Err() != nil {
			// The campaign itself is shutting down, not just this attempt.
			return nil, faults.FromContext(ctx.Err())
		}
		cfg.Metrics.Counter("supervisor.retries").Add(1)
	}
	// Every rung failed: emit the sound Unknown verdict carrying the last
	// classified fault. This is a result, not an error — the item is
	// accounted for, just undecided.
	res := &Result{
		Fn:       fn,
		Rung:     RungUnknown,
		Failure:  faults.Kind(lastFault),
		Fault:    lastFault,
		Attempts: attempts,
	}
	cfg.Metrics.Counter("supervisor.unknown").Add(1)
	res.record(cfg.Metrics)
	return res, nil
}

// attemptRung runs one analysis attempt with panic recovery: a panicking
// worker (organic or injected) yields a classified faults.ErrPanic error
// instead of unwinding the process.
func attemptRung(ctx context.Context, m *ir.Module, fn string, cfg Config) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if pv, ok := r.(faultinject.PanicValue); ok {
				err = fmt.Errorf("%w: %w: %v", faults.ErrPanic, faultinject.ErrInjected, pv)
				return
			}
			err = faults.Panicf("detect %s: %v", fn, r)
		}
	}()
	return AnalyzeFuncCtx(ctx, m, fn, cfg)
}

// classifyAttempt folds an attempt's outcome into a single error: nil for
// success, a faults-taxonomy error for a recoverable fault, anything else
// for a genuine error.
func classifyAttempt(res *Result, err error) error {
	switch {
	case err != nil:
		return err
	case res.Fault != nil:
		return res.Fault
	case res.TimedOut:
		return faults.Deadlinef("%s: analysis deadline", res.Fn)
	case res.BudgetHit:
		return faults.Budgetf("%s: analysis budget", res.Fn)
	}
	return nil
}

// recordFault tallies one failed attempt in the failure-taxonomy
// counters; injected faults get a parallel counter so chaos campaigns can
// reconcile them exactly against the armed plan.
func recordFault(reg *obsv.Registry, fault error) {
	kind := faults.Kind(fault)
	reg.Counter("faults." + kind).Add(1)
	if errors.Is(fault, faultinject.ErrInjected) {
		reg.Counter("faults.injected." + kind).Add(1)
	}
}

// recordDegraded tallies one verdict decided below full precision.
func recordDegraded(reg *obsv.Registry, rung Rung) {
	reg.Counter("supervisor.degraded").Add(1)
	reg.Counter("supervisor.rung." + rung.String()).Add(1)
}
