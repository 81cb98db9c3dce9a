package detect

import (
	"context"
	"testing"

	"lcm/internal/cryptolib"
	"lcm/internal/faultinject"
	"lcm/internal/litmus"
	"lcm/internal/obsv"
)

func TestLadderHealthyRunStaysFull(t *testing.T) {
	m := compile(t, spectreV1Src)
	res, err := AnalyzeFuncLadder(context.Background(), m, "victim", DefaultPHT())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != RungFull {
		t.Fatalf("rung = %v, want full", res.Rung)
	}
	if res.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", res.Attempts)
	}
	if len(res.Findings) == 0 {
		t.Fatal("healthy run lost its findings")
	}
	if got := res.Report().Verdict; got != "leak" {
		t.Fatalf("verdict = %q, want leak", got)
	}
}

// TestLadderDescendsOnBudget: a query budget of 1 faults the full rung
// deterministically; triage (no solver search) then decides the
// function. The verdict carries the rung and the metrics
// carry the retries.
func TestLadderDescendsOnBudget(t *testing.T) {
	m := compile(t, spectreV1Src)
	cfg := DefaultPHT()
	cfg.MaxQueries = 1
	// Pin the raw solver query stream: with the pre-solver discharging
	// queries a 1-query budget never trips and the ladder has nothing to
	// descend from.
	cfg.NoPresolve = true
	cfg.Metrics = obsv.NewRegistry()
	res, err := AnalyzeFuncLadder(context.Background(), m, "victim", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != RungTriage {
		t.Fatalf("rung = %v, want triage", res.Rung)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (full, triage)", res.Attempts)
	}
	if len(res.Findings) == 0 {
		t.Fatal("triage rung reported no findings for Spectre v1")
	}
	snap := cfg.Metrics.Snapshot()
	if got := snap.Counters["faults.budget"]; got != 1 {
		t.Errorf("faults.budget = %d, want 1", got)
	}
	if got := snap.Counters["supervisor.retries"]; got != 1 {
		t.Errorf("supervisor.retries = %d, want 1", got)
	}
	if got := snap.Counters["supervisor.degraded"]; got != 1 {
		t.Errorf("supervisor.degraded = %d, want 1", got)
	}
	if got := snap.Counters["supervisor.rung.triage"]; got != 1 {
		t.Errorf("supervisor.rung.triage = %d, want 1", got)
	}
}

// TestTriageOverApproximatesFull: the triage rung admits every candidate
// the filters pass, so its finding set must cover the full analysis's —
// the weaker-contract soundness direction of the ladder. It runs the
// configuration the ladder itself derives, for every engine over the
// litmus corpus and TEA.
func TestTriageOverApproximatesFull(t *testing.T) {
	type input struct{ name, src, fn string }
	var inputs []input
	for _, c := range litmus.All() {
		inputs = append(inputs, input{"litmus/" + c.Name, c.Source, c.Fn})
	}
	tea := cryptolib.TEA()
	for _, fn := range tea.PublicFuncs {
		inputs = append(inputs, input{"tea", tea.Source, fn})
	}
	type key struct {
		class    string
		transmit int
	}
	for _, in := range inputs {
		m := compile(t, in.src)
		for _, e := range Engines() {
			full, err := AnalyzeFunc(m, in.fn, DefaultConfig(e))
			if err != nil {
				t.Fatal(err)
			}
			triage, err := AnalyzeFunc(m, in.fn, triageCfg(DefaultConfig(e)))
			if err != nil {
				t.Fatal(err)
			}
			seen := map[key]bool{}
			for _, f := range triage.Findings {
				seen[key{f.Class.String(), f.Transmit}] = true
			}
			for _, f := range full.Findings {
				k := key{f.Class.String(), f.Transmit}
				if !seen[k] {
					seen[k] = true // report each missing transmitter once
					t.Errorf("%s %s/%v: full-precision %v finding at node %d (line %d) missing from triage",
						in.name, in.fn, e, f.Class, f.Transmit, f.Line)
				}
			}
		}
	}
}

// TestLadderExhaustedYieldsSoundUnknown arms a rate-1.0 injection plan:
// every probe fires on every rung, so no attempt can complete and the
// supervisor must return the RungUnknown verdict — classified, counted,
// and never an error or a crash.
func TestLadderExhaustedYieldsSoundUnknown(t *testing.T) {
	m := compile(t, spectreV1Src)
	plan := faultinject.NewPlan(3, 1.0)
	faultinject.Arm(plan)
	defer faultinject.Disarm()

	cfg := DefaultPHT()
	cfg.Metrics = obsv.NewRegistry()
	res, err := AnalyzeFuncLadder(context.Background(), m, "victim", cfg)
	if err != nil {
		t.Fatalf("ladder returned an error under total injection: %v", err)
	}
	if res.Rung != RungUnknown {
		t.Fatalf("rung = %v, want unknown", res.Rung)
	}
	if res.Failure == "" {
		t.Fatal("unknown verdict carries no failure kind")
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
	rep := res.Report()
	if rep.Verdict != "unknown" || rep.Rung != "unknown" {
		t.Fatalf("report verdict=%q rung=%q, want unknown/unknown", rep.Verdict, rep.Rung)
	}
	snap := cfg.Metrics.Snapshot()
	var faultsTotal, injected int64
	for name, v := range snap.Counters {
		switch {
		case len(name) > len("faults.injected.") && name[:len("faults.injected.")] == "faults.injected.":
			injected += v
		case len(name) > len("faults.") && name[:len("faults.")] == "faults.":
			faultsTotal += v
		}
	}
	if faultsTotal != 2 || injected != 2 {
		t.Errorf("faults=%d injected=%d, want 2 injected faults recorded (one per rung)", faultsTotal, injected)
	}
	if got := snap.Counters["supervisor.unknown"]; got != 1 {
		t.Errorf("supervisor.unknown = %d, want 1", got)
	}
}

// TestLadderPropagatesGenuineErrors: precision loss cannot fix a request
// for a function that does not exist — that is an error, not a fault.
func TestLadderPropagatesGenuineErrors(t *testing.T) {
	m := compile(t, spectreV1Src)
	if _, err := AnalyzeFuncLadder(context.Background(), m, "no_such_fn", DefaultPHT()); err == nil {
		t.Fatal("ladder swallowed an unknown-function error")
	}
}

// TestLadderHonorsParentCancellation: a dead parent context aborts the
// ladder immediately instead of burning the remaining rungs.
func TestLadderHonorsParentCancellation(t *testing.T) {
	m := compile(t, spectreV1Src)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeFuncLadder(ctx, m, "victim", DefaultPHT()); err == nil {
		t.Fatal("ladder ran under a cancelled parent context")
	}
}
