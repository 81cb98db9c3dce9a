package detect

import (
	"slices"
	"testing"

	"lcm/internal/core"
	"lcm/internal/ir"
	"lcm/internal/litmus"
	"lcm/internal/lower"
	"lcm/internal/minic"
)

func compile(t testing.TB, src string) *ir.Module {
	t.Helper()
	f, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := lower.Module(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return m
}

func analyze(t *testing.T, src, fn string, cfg Config) *Result {
	t.Helper()
	m := compile(t, src)
	r, err := AnalyzeFunc(m, fn, cfg)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return r
}

func hasClass(r *Result, c core.Class) bool {
	for _, f := range r.Findings {
		if f.Class == c {
			return true
		}
	}
	return false
}

const spectreV1Src = `
uint8_t A[16];
uint8_t B[131072];
uint32_t size_A = 16;
uint8_t tmp;
void victim(uint32_t y) {
	if (y < size_A) {
		uint8_t x = A[y];
		tmp &= B[x * 512];
	}
}
`

func TestPHTDetectsSpectreV1(t *testing.T) {
	r := analyze(t, spectreV1Src, "victim", DefaultPHT())
	if !hasClass(r, core.UDT) {
		t.Fatalf("Spectre v1 UDT not found; findings: %v", r.Findings)
	}
	// The UDT's transmit is the B access, transient, with transient
	// access (A load inside the window).
	for _, f := range r.Findings {
		if f.Class == core.UDT {
			if !f.TransientTransmit || !f.TransientAccess {
				t.Errorf("UDT not transient: %+v", f)
			}
			if f.Branch < 0 {
				t.Error("UDT has no speculation primitive")
			}
		}
	}
	// The pre-solver may discharge every query statically; either way the
	// candidate traffic must be accounted somewhere.
	if r.Queries+r.SkippedQueries == 0 || r.NodeCount == 0 {
		t.Error("stats not recorded")
	}
}

func TestPHTSafeWithoutSecretIndexing(t *testing.T) {
	// A bounds check guarding a direct array write: no double indexing, so
	// no universal data transmitter.
	r := analyze(t, `
		uint8_t A[16];
		uint32_t size_A = 16;
		void safe(uint32_t y) {
			if (y < size_A) {
				A[y] = 1;
			}
		}
	`, "safe", DefaultPHT())
	if hasClass(r, core.UDT) {
		t.Errorf("false UDT in single-indexing program: %v", r.Findings)
	}
}

func TestPHTFenceSuppressesDetection(t *testing.T) {
	m := compile(t, spectreV1Src)
	// Insert an lfence right after the branch (entry of the if body).
	f := m.Func("victim")
	var thenBlk *ir.Block
	for _, b := range f.Blocks {
		if len(b.Nm) >= 7 && b.Nm[:7] == "if.then" {
			thenBlk = b
		}
	}
	if thenBlk == nil {
		t.Fatal("if.then block not found")
	}
	fence := &ir.Instr{Op: ir.OpFence, Sub: "lfence"}
	thenBlk.Instrs = append([]*ir.Instr{fence}, thenBlk.Instrs...)

	r, err := AnalyzeFunc(m, "victim", DefaultPHT())
	if err != nil {
		t.Fatal(err)
	}
	if hasClass(r, core.UDT) {
		t.Errorf("UDT survives lfence: %v", r.Findings)
	}
}

func TestPHTVariantNonTransientAccessIsDT(t *testing.T) {
	// Fig. 3: the access executes before the branch, so no UDT under the
	// transient-access restriction; the transient transmit is a DT.
	r := analyze(t, `
		uint8_t A[16];
		uint8_t B[131072];
		uint32_t size_A = 16;
		uint8_t tmp;
		void victim(uint32_t y) {
			uint8_t x = A[y];
			if (y < size_A) {
				tmp &= B[x * 512];
			}
		}
	`, "victim", DefaultPHT())
	if hasClass(r, core.UDT) {
		t.Errorf("variant produced UDT despite committed access: %v", r.Findings)
	}
	if !hasClass(r, core.DT) {
		t.Errorf("variant DT not found: %v", r.Findings)
	}
}

func TestPHTControlTransmitter(t *testing.T) {
	// Branching on loaded data, with memory accesses in the window: the
	// branch outcome (a function of the loaded value) leaks.
	r := analyze(t, `
		uint8_t A[16];
		uint8_t flag;
		uint8_t out;
		void victim(uint32_t y) {
			if (flag) {
				out = 1;
			}
		}
	`, "victim", Config{Engine: PHT, Transmitters: []core.Class{core.CT}})
	if !hasClass(r, core.CT) {
		t.Errorf("control transmitter not found: %v", r.Findings)
	}
}

func TestSTLDetectsSpectreV4(t *testing.T) {
	// STL01-style: a store masks an index; a bypassing load returns the
	// stale unmasked value and steers a double dereference.
	r := analyze(t, `
		uint8_t A[16];
		uint8_t B[131072];
		uint8_t tmp;
		uint32_t idx_slot;
		void victim(uint32_t idx) {
			idx_slot = idx & 15;
			uint8_t x = A[idx_slot];
			tmp &= B[x * 512];
		}
	`, "victim", DefaultSTL())
	if len(r.Findings) == 0 {
		t.Fatal("Spectre v4 pattern not found")
	}
	found := false
	for _, f := range r.Findings {
		if f.Store >= 0 && f.Load >= 0 && f.TransientTransmit {
			found = true
		}
	}
	if !found {
		t.Errorf("no bypass pair recorded: %v", r.Findings)
	}
}

func TestSTLStackSlotBypass(t *testing.T) {
	// §6.1 STL01: the spilled idx parameter can be read stale from the
	// stack. At -O0 the parameter spill store and its reload share a slot;
	// the reload may bypass the spill, returning stale attacker data.
	r := analyze(t, `
		uint8_t pub_ary[131072];
		uint8_t sec_ary[16];
		uint32_t ary_size = 16;
		uint8_t tmp;
		void case_1(uint32_t idx) {
			uint32_t ridx = idx & (ary_size - 1);
			sec_ary[ridx] = 0;
			tmp &= pub_ary[sec_ary[ridx]];
		}
	`, "case_1", DefaultSTL())
	if len(r.Findings) == 0 {
		t.Fatal("STL01-style leakage not found")
	}
}

func TestSTLRespectsLSQBound(t *testing.T) {
	// With an LSQ of 1, a distant store cannot be bypassed.
	src := `
		uint8_t A[16];
		uint8_t B[131072];
		uint8_t tmp;
		uint32_t slot;
		void victim(uint32_t idx) {
			slot = idx & 15;
			uint32_t a = idx + 1;
			uint32_t b = a + 2;
			uint32_t c = b + 3;
			uint32_t d = c + 4;
			uint8_t x = A[slot];
			tmp &= B[x * 512];
		}
	`
	wide := analyze(t, src, "victim", DefaultSTL())
	cfgNarrow := DefaultSTL()
	cfgNarrow.AEG.LSQ = 1
	narrow := analyze(t, src, "victim", cfgNarrow)
	if len(narrow.Findings) >= len(wide.Findings) && len(wide.Findings) > 0 {
		t.Errorf("LSQ bound ineffective: wide=%d narrow=%d", len(wide.Findings), len(narrow.Findings))
	}
}

func TestEngineStrings(t *testing.T) {
	if PHT.String() != "clou-pht" || STL.String() != "clou-stl" {
		t.Error("engine names")
	}
}

func TestSafeConstantTimeCode(t *testing.T) {
	// Straight-line constant-time select: no branches on secrets, no
	// secret-indexed loads → no findings from either engine.
	src := `
		uint32_t ct_select(uint32_t mask, uint32_t a, uint32_t b) {
			return (a & mask) | (b & ~mask);
		}
	`
	if r := analyze(t, src, "ct_select", DefaultPHT()); len(r.Findings) != 0 {
		t.Errorf("pht false positives: %v", r.Findings)
	}
	if r := analyze(t, src, "ct_select", DefaultSTL()); len(r.Findings) != 0 {
		t.Errorf("stl false positives: %v", r.Findings)
	}
}

func TestNestedCallDetection(t *testing.T) {
	// The gadget hides behind a call: inlining must expose it.
	r := analyze(t, `
		uint8_t A[16];
		uint8_t B[131072];
		uint32_t size_A = 16;
		uint8_t tmp;
		void gadget(uint32_t y) {
			uint8_t x = A[y];
			tmp &= B[x * 512];
		}
		void victim(uint32_t y) {
			if (y < size_A) {
				gadget(y);
			}
		}
	`, "victim", DefaultPHT())
	if !hasClass(r, core.UDT) {
		t.Errorf("inlined gadget not found: %v", r.Findings)
	}
}

// TestPresolveDecidedFunctionsEncodeNothing pins the S-AEG's laziness end
// to end: a function whose every query the pre-solver decided never
// touches the solver, so it defines no Tseitin gate and propagates
// nothing. The residual functions show the counters do move when the
// solver runs.
func TestPresolveDecidedFunctionsEncodeNothing(t *testing.T) {
	decided, residual := 0, 0
	for _, c := range litmus.All() {
		m := compile(t, c.Source)
		for _, e := range Engines() {
			res, err := AnalyzeFunc(m, c.Fn, DefaultConfig(e))
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, e, err)
			}
			// Queries counts the calls that reached the solver; the
			// pre-solver's decisions are SkippedQueries.
			if res.Queries > 0 {
				residual++
				if res.TseitinGates == 0 && res.Propagations == 0 {
					t.Errorf("%s/%s: %d solver queries left no solver effort", c.Name, e, res.Queries)
				}
				continue
			}
			decided++
			if res.TseitinGates != 0 || res.Propagations != 0 {
				t.Errorf("%s/%s: all %d queries presolve-decided, yet tseitin_gates=%d propagations=%d",
					c.Name, e, res.SkippedQueries, res.TseitinGates, res.Propagations)
			}
		}
	}
	if decided == 0 || residual == 0 {
		t.Errorf("decided=%d residual=%d: want both kinds of function", decided, residual)
	}
}

// TestQueryConservationAcrossPresolveModes checks the decide step's
// accounting against the pre-solver-free run it must reproduce. For every
// litmus case under every engine, with an unbounded budget: findings are
// identical with the pre-solver off, on, and under audit; every query the
// pre-solver decides is one the solver would have been asked
// (on.Queries + on.SkippedQueries == off.Queries); the audit replays all
// of them (audit.Queries == off.Queries) without a disagreement; and the
// candidate and prune counts do not depend on the mode.
func TestQueryConservationAcrossPresolveModes(t *testing.T) {
	var offQ, onQ, onSkipped, auditQ int
	for _, c := range litmus.All() {
		m := compile(t, c.Source)
		for _, e := range Engines() {
			run := func(noPresolve, audit bool) *Result {
				cfg := DefaultConfig(e)
				cfg.NoPresolve, cfg.AuditPresolve = noPresolve, audit
				res, err := AnalyzeFunc(m, c.Fn, cfg)
				if err != nil {
					t.Fatalf("%s/%s: %v", c.Name, e, err)
				}
				return res
			}
			off, on, audit := run(true, false), run(false, false), run(false, true)
			at := c.Name + "/" + e.String()
			if !slices.Equal(on.Findings, off.Findings) || !slices.Equal(audit.Findings, off.Findings) {
				t.Errorf("%s: findings differ across pre-solver modes:\noff   %v\non    %v\naudit %v",
					at, off.Findings, on.Findings, audit.Findings)
			}
			if on.Queries+on.SkippedQueries != off.Queries {
				t.Errorf("%s: on.Queries %d + on.SkippedQueries %d != off.Queries %d",
					at, on.Queries, on.SkippedQueries, off.Queries)
			}
			if audit.Queries != off.Queries {
				t.Errorf("%s: audit.Queries %d != off.Queries %d", at, audit.Queries, off.Queries)
			}
			if audit.PresolveDisagreements != 0 {
				t.Errorf("%s: %d presolve disagreements under audit", at, audit.PresolveDisagreements)
			}
			if on.Candidates != off.Candidates || audit.Candidates != off.Candidates ||
				on.Pruned != off.Pruned || audit.Pruned != off.Pruned {
				t.Errorf("%s: candidates off/on/audit %d/%d/%d, pruned %d/%d/%d", at,
					off.Candidates, on.Candidates, audit.Candidates, off.Pruned, on.Pruned, audit.Pruned)
			}
			if on.Discharged != audit.Discharged {
				t.Errorf("%s: discharged on %d, audit %d", at, on.Discharged, audit.Discharged)
			}
			offQ, onQ, onSkipped, auditQ = offQ+off.Queries, onQ+on.Queries, onSkipped+on.SkippedQueries, auditQ+audit.Queries
		}
	}
	if onSkipped == 0 || onQ == 0 {
		t.Errorf("on: %d queries, %d skipped: want both decided and residual queries", onQ, onSkipped)
	}
	t.Logf("queries: on %d + skipped %d, off %d, audit %d", onQ, onSkipped, offQ, auditQ)
}

// TestLeakThroughReturnOfInlinedCall pins value flow through `return g(x)`:
// the transiently loaded A[y] reaches B's index only through scale's
// return of its inlined callee's result, so losing that link hides the
// Spectre v1 UDT.
func TestLeakThroughReturnOfInlinedCall(t *testing.T) {
	const src = `
uint8_t A[16];
uint8_t B[131072];
uint32_t size_A = 16;
uint8_t tmp;
uint32_t times512(uint32_t x) { return x * 512; }
uint32_t scale(uint32_t x) { return times512(x); }
void victim(uint32_t y) {
	if (y < size_A) {
		uint32_t i = scale(A[y]);
		tmp &= B[i];
	}
}
`
	r := analyze(t, src, "victim", DefaultPHT())
	if !hasClass(r, core.UDT) {
		t.Fatalf("UDT through return of an inlined call not found; findings: %v", r.Findings)
	}
}
