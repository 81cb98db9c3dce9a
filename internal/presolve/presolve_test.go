// Tests live in an external package so they can drive the real encoder
// (lcm/internal/aeg implements WindowSource) and cross-check every static
// refutation against the solver — the same agreement -audit-presolve
// asserts at the tool level, proven here per-query at the unit level.
package presolve_test

import (
	"encoding/json"
	"strings"
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/aeg"
	"lcm/internal/alias"
	"lcm/internal/dataflow"
	"lcm/internal/ir"
	"lcm/internal/litmus"
	"lcm/internal/lower"
	"lcm/internal/minic"
	"lcm/internal/presolve"
	"lcm/internal/sat"
	"lcm/internal/smt"
)

// world bundles one compiled function's frontend, encoder, and pre-solver.
type world struct {
	g  *acfg.Graph
	a  *aeg.AEG
	p  *dataflow.Pruner
	an *presolve.Analysis
}

func build(t *testing.T, src, fn string) *world {
	t.Helper()
	f, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := lower.Module(f)
	if err != nil {
		t.Fatal(err)
	}
	g, err := acfg.Build(m, fn, acfg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	al := alias.Analyze(g)
	a := aeg.Build(g, al, aeg.Options{})
	p := dataflow.NewPruner(m)
	facts := presolve.NewFacts(g, al, p.Ranges())
	return &world{g: g, a: a, p: p, an: presolve.NewAnalysis(facts, a)}
}

// loadAt returns the (unique) array load on a source line, skipping the
// Clang-O0-style reloads of local slots that share the line.
func (w *world) loadAt(t *testing.T, line int) int {
	t.Helper()
	id := -1
	for _, n := range w.g.Nodes {
		if !n.IsLoad() || n.Instr.Line != line || isSlotLoad(n) {
			continue
		}
		if id >= 0 {
			t.Fatalf("multiple array loads on line %d", line)
		}
		id = n.ID
	}
	if id < 0 {
		t.Fatalf("no array load on line %d", line)
	}
	return id
}

// isSlotLoad reports whether the load reads a local alloca slot directly.
func isSlotLoad(n *acfg.Node) bool {
	in, ok := n.Instr.Args[0].(*ir.Instr)
	return ok && in.Op == ir.OpAlloca
}

func (w *world) storeAt(t *testing.T, line int) int {
	t.Helper()
	for _, n := range w.g.Nodes {
		if n.IsStore() && n.Instr.Line == line {
			return n.ID
		}
	}
	t.Fatalf("no store on line %d", line)
	return -1
}

// theBranch returns the function's single branch node.
func (w *world) theBranch(t *testing.T) int {
	t.Helper()
	bs := w.a.Branches()
	if len(bs) != 1 {
		t.Fatalf("branches = %d, want 1", len(bs))
	}
	return bs[0]
}

// crossArm puts the two loads in opposite arms of one branch: no take
// value lets both be fetched transiently under it.
const crossArm = `
int A[16];
int B[16];
int f(int y, int z) {
	int r = 0;
	if (y < 16) {
		r = A[z];
	} else {
		r = B[z];
	}
	return r;
}
`

func TestCrossArmRefuted(t *testing.T) {
	w := build(t, crossArm, "f")
	b := w.theBranch(t)
	la, lb := w.loadAt(t, 7), w.loadAt(t, 9)
	q := presolve.Query{Branch: b, Trans: []int{la, lb}}
	cert, ok, _ := w.an.Decide(q)
	if !ok {
		t.Fatal("cross-arm query not refuted")
	}
	if err := cert.Check(); err != nil {
		t.Fatalf("certificate check: %v", err)
	}
	// Each direction individually must remain feasible — the refutation is
	// about the pair, and an over-eager rule would break findings.
	for _, n := range []int{la, lb} {
		if _, ok, _ := w.an.Decide(presolve.Query{Branch: b, Trans: []int{n}}); ok {
			t.Errorf("single-arm query on node %d wrongly refuted", n)
		}
	}
	if err := w.an.Recheck(cert); err != nil {
		t.Errorf("recheck: %v", err)
	}
}

// TestWindowCertificateCheck tampers with a refutation's take cases: each
// must name a known reason and one of the query's Trans nodes.
func TestWindowCertificateCheck(t *testing.T) {
	w := build(t, crossArm, "f")
	b := w.theBranch(t)
	q := presolve.Query{Branch: b, Trans: []int{w.loadAt(t, 7), w.loadAt(t, 9)}}
	cert, ok, _ := w.an.Decide(q)
	if !ok {
		t.Fatal("cross-arm query not refuted")
	}
	for _, tc := range cert.Window.Cases {
		if tc.Reason != presolve.ReasonArmConflict {
			t.Errorf("take=%v: reason %q, want %q", tc.Take, tc.Reason, presolve.ReasonArmConflict)
		}
	}
	tamper := func(name string, f func(*presolve.TakeCase)) {
		bad := *cert
		wf := *cert.Window
		f(&wf.Cases[1])
		bad.Window = &wf
		if err := bad.Check(); err == nil {
			t.Errorf("%s passed Check", name)
		}
	}
	tamper("bogus reason", func(tc *presolve.TakeCase) { tc.Reason = "data-starved" })
	tamper("empty reason", func(tc *presolve.TakeCase) { tc.Reason = "" })
	tamper("node outside the query", func(tc *presolve.TakeCase) { tc.Node = b })
}

// TestRecheckRederivesWindowCertificate edits a window certificate's
// recorded fetch distance in place, leaving it internally consistent:
// Check cannot see the edit, so Recheck on the issuing Analysis must
// catch it by deriving the certificate afresh and comparing.
func TestRecheckRederivesWindowCertificate(t *testing.T) {
	w := build(t, crossArm, "f")
	q := presolve.Query{Branch: w.theBranch(t), Trans: []int{w.loadAt(t, 7), w.loadAt(t, 9)}}
	cert, ok, _ := w.an.Decide(q)
	if !ok {
		t.Fatal("cross-arm query not refuted")
	}
	if err := w.an.Recheck(cert); err != nil {
		t.Fatalf("recheck before the edit: %v", err)
	}
	cert.Window.Cases[0].Dist++
	if err := cert.Check(); err != nil {
		t.Fatalf("the edit should leave the certificate self-consistent: %v", err)
	}
	if err := w.an.Recheck(cert); err == nil {
		t.Error("Recheck passed a window certificate whose Dist was edited in place")
	}
}

// TestRefutationsAgreeWithSolver is the unit-level audit: over every
// branch and every small query shape drawn from window members, a static
// refutation must coincide with solver UNSAT and a witness with SAT.
func TestRefutationsAgreeWithSolver(t *testing.T) {
	srcs := map[string]string{"crossArm/f": crossArm, "deps/g": `
int A[16];
int B[16];
int g(int y, int z) {
	int r = 0;
	if (y < 16) {
		int i = A[y];
		r = B[i];
	} else {
		r = B[z];
	}
	return r;
}
`}
	for name, src := range srcs {
		fn := name[len(name)-1:]
		w := build(t, src, fn)
		for _, b := range w.a.Branches() {
			var win []int
			for _, n := range w.g.Nodes {
				if w.a.InWindow(b, n.ID) {
					win = append(win, n.ID)
				}
			}
			for _, n1 := range win {
				for _, n2 := range win {
					q := presolve.Query{Branch: b, Trans: []int{n1, n2}}
					_, refuted, witnessed := w.an.Decide(q)
					st := w.a.Check(w.a.Misspec(b), w.a.TransUnder(b, n1), w.a.TransUnder(b, n2))
					if refuted && st != sat.Unsat {
						t.Fatalf("%s: branch %d trans {%d,%d}: refuted but solver says %v", name, b, n1, n2, st)
					}
					if witnessed && st != sat.Sat {
						t.Fatalf("%s: branch %d trans {%d,%d}: witnessed but solver says %v", name, b, n1, n2, st)
					}
				}
			}
		}
	}
}

// TestArmCoversSolverTransience pins arm(v), the window arm a take value
// mispredicts, against the S-AEG solver on every litmus graph: whenever
// TransUnder(b, t) ∧ take(b)=v is satisfiable, t must be fetchable down
// arm(v) of b's window, or refuteCase would refute a feasible direction.
func TestArmCoversSolverTransience(t *testing.T) {
	sats := [2]int{}
	for _, c := range litmus.All() {
		w := build(t, c.Source, c.Fn)
		for _, b := range w.a.Branches() {
			var win []int
			w.a.ForEachWindowNode(b, func(n int, _ [2]bool) { win = append(win, n) })
			for _, n := range win {
				for _, v := range []bool{false, true} {
					take := w.a.Take(b)
					if !v {
						take = smt.Not(take)
					}
					if w.a.Check(w.a.TransUnder(b, n), take) != sat.Sat {
						continue
					}
					sats[presolve.Arm(v)]++
					if arms, _, ok := w.a.WindowInfo(b, n); !ok || !arms[presolve.Arm(v)] {
						t.Fatalf("%s/%s: branch %d node %d is transient under take=%v, but window arms are %v (in window %v)",
							c.Suite, c.Name, b, n, v, arms, ok)
					}
				}
			}
		}
	}
	// Both take values must reach the check, or an arm swap would pass.
	if sats[0] == 0 || sats[1] == 0 {
		t.Fatalf("satisfiable (branch, node, take) triples per arm: %v; want both > 0", sats)
	}
	t.Logf("satisfiable (branch, node, take) triples per arm: %v", sats)
}

// inBounds has a provably confined access: offsets 0..15 of a 16-int
// global, so the pruner discharges it and the certificate must agree.
const inBounds = `
int A[16];
int f(int y) {
	int r = 0;
	int i = y & 15;
	if (y < 16) {
		r = A[i];
	}
	return r;
}
`

func TestCertInBounds(t *testing.T) {
	w := build(t, inBounds, "f")
	acc := w.g.Nodes[w.loadAt(t, 7)]
	e, ok := w.p.InBoundsAccess(acc.Instr)
	if !ok {
		t.Fatal("masked access not pruned in-bounds")
	}
	cert := w.an.InBoundsCert(acc, e)
	if err := cert.Check(); err != nil {
		t.Fatalf("certificate check: %v", err)
	}
	f := cert.InBounds
	if f.Base != "global:A" || f.Lo != 0 || f.Hi != 60 || f.Width != 4 || f.Object != 64 {
		t.Errorf("unexpected bounds fact: %+v", f)
	}
	if err := w.an.Recheck(cert); err != nil {
		t.Errorf("recheck: %v", err)
	}
	// Tampering must be caught by the arithmetic check.
	bad := *cert
	badf := *f
	badf.Hi = 64
	bad.InBounds = &badf
	if err := bad.Check(); err == nil {
		t.Error("tampered certificate passed Check")
	}
}

// disjoint writes the low half and reads the high half of one global:
// store bypass cannot make the load observe stale data.
const disjoint = `
int A[16];
int f(int y) {
	A[1] = y;
	int r = A[8];
	return r;
}
`

func TestCertDisjoint(t *testing.T) {
	w := build(t, disjoint, "f")
	s, l := w.g.Nodes[w.storeAt(t, 4)], w.g.Nodes[w.loadAt(t, 5)]
	se, le, ok := w.p.DisjointPair(s.Instr, l.Instr)
	if !ok {
		t.Fatal("constant-offset pair not pruned disjoint")
	}
	cert := w.an.DisjointCert(s, l, se, le)
	if err := cert.Check(); err != nil {
		t.Fatalf("certificate check: %v", err)
	}
	f := cert.Disjoint
	if f.Base != "global:A" || f.StoreLo != 4 || f.LoadLo != 32 || !f.LoadFree {
		t.Errorf("unexpected disjoint fact: %+v", f)
	}
	if err := w.an.Recheck(cert); err != nil {
		t.Errorf("recheck: %v", err)
	}
	bad := *cert
	badf := *f
	badf.LoadLo, badf.LoadHi = 4, 4
	bad.Disjoint = &badf
	if err := bad.Check(); err == nil {
		t.Error("overlapping ranges passed Check")
	}
}

func TestCertificateJSONRoundTrip(t *testing.T) {
	w := build(t, crossArm, "f")
	b := w.theBranch(t)
	q := presolve.Query{Branch: b, Trans: []int{w.loadAt(t, 7), w.loadAt(t, 9)}}
	cert, ok, _ := w.an.Decide(q)
	if !ok {
		t.Fatal("query not refuted")
	}
	data, err := json.Marshal(cert)
	if err != nil {
		t.Fatal(err)
	}
	var back presolve.Certificate
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Check(); err != nil {
		t.Fatalf("round-tripped certificate: %v", err)
	}
	if err := w.an.Recheck(&back); err != nil {
		t.Fatalf("round-tripped recheck: %v", err)
	}
}

func TestPartitionRelations(t *testing.T) {
	const src = `
int A[16];
int B[16];
int f(int y) {
	int s = 0;
	int t = 0;
	s = A[0];
	t = B[0];
	return s + t;
}
`
	w := build(t, src, "f")
	part := w.an.Facts().Partition()
	la, lb := w.loadAt(t, 7), w.loadAt(t, 8)
	if got := part.Rel(la, lb); got != presolve.RelMustNotArch {
		t.Errorf("A[0] vs B[0]: rel = %v, want arch-only separation", got)
	}
	if got := part.Rel(la, la); got != presolve.RelMay {
		t.Errorf("self relation = %v, want may-alias", got)
	}
	if d := part.Describe(la); d == "untracked access" {
		t.Errorf("describe(A[0]) = %q", d)
	}
}

// TestExplainLitmusAccess pins what lcmlint -why prints for pht01's
// secret access array1[x] under the bounds check: its alias class, an
// offset interval that escapes the 16-byte array, and the one branch
// whose window fetches it.
func TestExplainLitmusAccess(t *testing.T) {
	c := litmus.PHT()[0]
	w := build(t, c.Source, c.Fn)
	// array1[x] is the first array load; array2[...] is the second.
	var acc *acfg.Node
	for _, n := range w.g.Nodes {
		if !n.IsLoad() {
			continue
		}
		if gep, ok := n.Instr.Args[0].(*ir.Instr); ok && gep.Op == ir.OpGEP {
			acc = n
			break
		}
	}
	if acc == nil {
		t.Fatal("no array load in pht01")
	}
	got := presolve.Explain(w.an.Facts(), w.a, acc.Instr)
	want := []string{
		"alias: class{13} base=global:array1 off=[0,4294967295] must-not-alias=0/4 (+4 arch-only)",
		"range: base=global:array1 off=[0,4294967295] width=1 — may reach outside the 16-byte object",
		"window: transiently fetchable under 1 branch(es); min fetch distance 7 from branch at line 9 (node 6)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("Explain:\n got  %q\n want %q", got, want)
	}
}
