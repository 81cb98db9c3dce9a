package alias_test

// Differential oracle for the dense points-to rewrite: the fast indexed
// Analysis is pinned query-for-query against the retained map-based
// reference (AnalyzeRef) over the whole litmus corpus, every cryptolib
// function, and 200 seeded progen programs. Any divergence in MayAlias,
// MayAliasTransient, SameAlloca, or a PointsTo set is a bug in the dense
// implementation by definition — ref_test.go's semantics are frozen.

import (
	"sort"
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/alias"
	"lcm/internal/cryptolib"
	"lcm/internal/ir"
	"lcm/internal/litmus"
	"lcm/internal/lower"
	"lcm/internal/minic"
	"lcm/internal/progen"
)

// lowerSrc parses and lowers one mini-C source, or fails the test.
func lowerSrc(t *testing.T, label, src string) *ir.Module {
	t.Helper()
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", label, err)
	}
	m, err := lower.Module(file)
	if err != nil {
		t.Fatalf("%s: lower: %v", label, err)
	}
	return m
}

// locLess orders Locs for set comparison.
func locLess(a, b alias.Loc) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Global < b.Global
}

// addrOperand mirrors the analysis's address-operand convention.
func addrOperand(n *acfg.Node) int {
	switch {
	case n.IsLoad():
		return 0
	case n.IsStore():
		return 1
	}
	return -1
}

// diffFunc checks every alias query of one function against the reference.
func diffFunc(t *testing.T, label string, m *ir.Module, fn string) {
	t.Helper()
	g, err := acfg.Build(m, fn, acfg.Options{})
	if err != nil {
		t.Fatalf("%s/%s: acfg: %v", label, fn, err)
	}
	dense := alias.Analyze(g)
	ref := alias.AnalyzeRef(g)

	var mems []*acfg.Node
	for _, n := range g.Nodes {
		if n.IsLoad() || n.IsStore() || n.Kind == acfg.NHavoc {
			mems = append(mems, n)
		}
	}

	// Points-to sets of every resolvable address operand.
	for _, n := range mems {
		i := addrOperand(n)
		if i < 0 {
			continue
		}
		got := dense.PointsTo(n, i)
		want := ref.PointsTo(n, i)
		if len(got) != len(want) {
			t.Fatalf("%s/%s: node %d: PointsTo size %d, reference %d (%v)",
				label, fn, n.ID, len(got), len(want), got)
		}
		sort.Slice(got, func(a, b int) bool { return locLess(got[a], got[b]) })
		for _, l := range got {
			if !want[l] {
				t.Fatalf("%s/%s: node %d: PointsTo has %+v, reference does not", label, fn, n.ID, l)
			}
		}
	}

	// Pairwise alias verdicts, including self-pairs and havoc nodes. The
	// reference resolves two map-based points-to sets per query, so full
	// n² on the biggest cryptolib functions costs minutes; past 256 nodes
	// both dimensions are stride-sampled (deterministically) instead —
	// PointsTo above already compared every node's set exhaustively, and
	// the pair predicates are pure functions of those sets plus the masks
	// the sample still exercises.
	step := 1
	if len(mems) > 256 {
		step = (len(mems) + 255) / 256
	}
	sample := func() []*acfg.Node {
		if step == 1 {
			return mems
		}
		var out []*acfg.Node
		for i := 0; i < len(mems); i += step {
			out = append(out, mems[i])
		}
		return out
	}()
	for _, a := range sample {
		for _, b := range sample {
			if got, want := dense.MayAlias(a, b), ref.MayAlias(a, b); got != want {
				t.Fatalf("%s/%s: MayAlias(%d,%d) = %v, reference %v", label, fn, a.ID, b.ID, got, want)
			}
			if got, want := dense.MayAliasTransient(a, b), ref.MayAliasTransient(a, b); got != want {
				t.Fatalf("%s/%s: MayAliasTransient(%d,%d) = %v, reference %v", label, fn, a.ID, b.ID, got, want)
			}
			gotN, gotOK := dense.SameAlloca(a, b)
			wantN, wantOK := ref.SameAlloca(a, b)
			if gotOK != wantOK || (gotOK && gotN != wantN) {
				t.Fatalf("%s/%s: SameAlloca(%d,%d) = (%d,%v), reference (%d,%v)",
					label, fn, a.ID, b.ID, gotN, gotOK, wantN, wantOK)
			}
		}
	}
}

// diffModule runs diffFunc over every defined function.
func diffModule(t *testing.T, label string, m *ir.Module) {
	t.Helper()
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		diffFunc(t, label, m, f.Nm)
	}
}

func TestDenseMatchesReferenceLitmus(t *testing.T) {
	for _, c := range litmus.All() {
		m := lowerSrc(t, c.Name, c.Source)
		diffModule(t, "litmus/"+c.Name, m)
	}
}

func TestDenseMatchesReferenceCryptolib(t *testing.T) {
	if testing.Short() {
		t.Skip("cryptolib differential sweep in -short mode")
	}
	for _, lib := range cryptolib.All() {
		m := lowerSrc(t, lib.Name, lib.Source)
		diffModule(t, "cryptolib/"+lib.Name, m)
	}
}

func TestDenseMatchesReferenceProgen(t *testing.T) {
	const n = 200
	progs, err := progen.GenerateN(1, n)
	if err != nil {
		t.Fatalf("progen: %v", err)
	}
	if len(progs) != n {
		t.Fatalf("progen: got %d programs, want %d", len(progs), n)
	}
	for _, p := range progs {
		m := lowerSrc(t, p.Fn, p.Src)
		diffModule(t, "progen", m)
	}
}
