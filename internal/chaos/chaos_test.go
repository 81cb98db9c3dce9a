package chaos

import (
	"bytes"
	"context"
	"flag"
	"testing"

	"lcm/internal/faultinject"
	"lcm/internal/obsv"
)

var (
	chaosN    = flag.Int("chaos.n", 100, "programs per chaos campaign")
	chaosRate = flag.Float64("chaos.rate", 0.3, "per-(probe, key) injection probability")
	chaosSeed = flag.Int64("chaos.seed", 1, "program-generator seed")
	faultSeed = flag.Int64("chaos.fault-seed", 7, "injection-plan seed")
)

// campaign runs one full chaos campaign at the given worker count and
// returns its normalized report bytes plus the plan and registry for
// reconciliation.
func campaign(t *testing.T, jobs int) ([]byte, *faultinject.Plan, *obsv.Registry, *Outcome) {
	t.Helper()
	reg := obsv.NewRegistry()
	tr := obsv.NewTracer()
	root := tr.Start("chaos-campaign")
	opts := Options{
		Seed:      *chaosSeed,
		FaultSeed: *faultSeed,
		N:         *chaosN,
		Jobs:      jobs,
		Rate:      *chaosRate,
		Metrics:   reg,
		Span:      root,
	}
	out, err := Run(context.Background(), opts)
	root.End()
	if err != nil {
		t.Fatalf("campaign at -j %d crashed: %v", jobs, err)
	}
	rep := out.Report(opts, reg, tr)
	rep.Normalize()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf.Bytes(), out.Plan, reg, out
}

// TestChaosCampaign is the `make chaos` acceptance gate: a seeded fault
// plan injects panics, deadline exhaustion, and cancellations at every
// probe point while the full pipeline analyzes generated programs, and
// the run must (1) not crash, (2) lose no inputs, (3) produce the same
// normalized report bytes at -j 1 and -j 8, (4) fire at least 200 faults
// covering all probe points, and (5) account for every injected fault in
// the failure-taxonomy metrics.
func TestChaosCampaign(t *testing.T) {
	b1, p1, r1, out1 := campaign(t, 1)
	b8, p8, _, _ := campaign(t, 8)

	// (3) byte-identical normalized reports across worker counts.
	if !bytes.Equal(b1, b8) {
		t.Errorf("normalized chaos report differs between -j 1 (%d bytes) and -j 8 (%d bytes)", len(b1), len(b8))
	}

	// (2) zero lost inputs: every (program, engine) pair has a verdict.
	if got, want := len(out1.Functions), len(engines)**chaosN; got != want {
		t.Fatalf("report has %d entries, want %d", got, want)
	}
	for _, fr := range out1.Functions {
		if fr.Name == "" || fr.Verdict == "" {
			t.Fatalf("lost input: entry %+v has no verdict", fr)
		}
	}

	// Every engine — the taxonomy candidate loops included — must have
	// absorbed injected faults: per engine, at least one verdict decided
	// below full precision with a classified failure kind.
	downgraded := map[string]int{}
	for _, fr := range out1.Functions {
		if fr.Failure != "" {
			for i := len(fr.Name) - 1; i >= 0; i-- {
				if fr.Name[i] == ':' {
					downgraded[fr.Name[i+1:]]++
					break
				}
			}
		}
	}
	for _, e := range engines {
		if downgraded[e.name] == 0 {
			t.Errorf("engine %s absorbed no injected fault (candidate loop not probed?)", e.name)
		}
	}

	// (4) campaign scale: enough injected faults, all probe points hit.
	if p1.Total() < 200 {
		t.Errorf("plan fired %d faults, want >= 200 (raise -chaos.n or -chaos.rate)", p1.Total())
	}
	fired := p1.FiredProbes()
	for _, probe := range faultinject.Probes() {
		if fired[probe] == 0 {
			t.Errorf("probe %s never fired", probe)
		}
	}
	// The two campaigns must have made identical injection decisions.
	if p1.Total() != p8.Total() {
		t.Errorf("plans diverged: %d faults at -j 1, %d at -j 8", p1.Total(), p8.Total())
	}

	// (6) the solver arm specifically: the campaign pins the warm
	// incremental solver mode and disables the pre-solver, so solver.step
	// faults land mid-sweep on a solver carrying learnt clauses and phases —
	// the path whose degradation the equivalence battery most cares about.
	if fired[faultinject.ProbeSolverStep] == 0 {
		t.Error("solver.step never fired on the incremental path")
	}

	// (5) exact fault accounting: the faults.injected.* counters must
	// reconcile with the plan's fired tally, kind by kind.
	snap := r1.Snapshot()
	var accounted int64
	for kind, want := range p1.Counts() {
		got := snap.Counters["faults.injected."+kind]
		if got != want {
			t.Errorf("faults.injected.%s = %d, plan fired %d", kind, got, want)
		}
		accounted += got
	}
	if accounted != p1.Total() {
		t.Errorf("accounted %d injected faults, plan fired %d", accounted, p1.Total())
	}
	// Injected counters never exceed their total-taxonomy counterparts.
	for kind := range p1.Counts() {
		if inj, tot := snap.Counters["faults.injected."+kind], snap.Counters["faults."+kind]; inj > tot {
			t.Errorf("faults.injected.%s = %d exceeds faults.%s = %d", kind, inj, kind, tot)
		}
	}

	// Under the default campaign flags the per-kind injected counts are
	// pinned exactly: the seeded plan, the generator, and the five-engine
	// key space are all deterministic, so these numbers only move when an
	// engine's probe traversal (or the hash) intentionally changes.
	if *chaosN == 100 && *chaosRate == 0.3 && *chaosSeed == 1 && *faultSeed == 7 {
		want := pinnedInjected
		for kind, w := range want {
			if got := snap.Counters["faults.injected."+kind]; got != w {
				t.Errorf("pinned faults.injected.%s = %d, want %d (default-flag campaign drifted)", kind, got, w)
			}
		}
	}
}

// pinnedInjected is the exact per-kind injected-fault tally of the
// default campaign (chaos.n=100 rate=0.3 seed=1 fault-seed=7) with all
// five engines armed. Regenerate by reading the failure message after an
// intentional probe-coverage change.
var pinnedInjected = map[string]int64{
	"panic":    122,
	"deadline": 133,
	"canceled": 114,
}
