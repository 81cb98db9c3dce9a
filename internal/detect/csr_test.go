package detect_test

// The indexed data.rf build against the pairwise store × load scan, over
// every corpus: the CSR arrays must be identical, not just equivalent.
// The progen legs of the feeder-relation and forwarding-pair checks live
// here too, as does the range-rule check over all three corpora: progen
// imports detect.

import (
	"fmt"
	"testing"

	"lcm/internal/cryptolib"
	"lcm/internal/detect"
	"lcm/internal/ir"
	"lcm/internal/litmus"
	"lcm/internal/lower"
	"lcm/internal/minic"
	"lcm/internal/progen"
)

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

func TestFlowCSRMatchesReferenceLitmus(t *testing.T) {
	for _, c := range litmus.All() {
		detect.CheckFlowCSR(t, "litmus/"+c.Name, lowerSrc(t, c.Name, c.Source))
	}
}

func TestFlowCSRMatchesReferenceCryptolib(t *testing.T) {
	for _, lib := range cryptolib.All() {
		detect.CheckFlowCSR(t, "cryptolib/"+lib.Name, lowerSrc(t, lib.Name, lib.Source))
	}
}

func TestFlowCSRMatchesReferenceProgen(t *testing.T) {
	const n = 200
	for _, seed := range []int64{22, 1} {
		progs, err := progen.GenerateN(seed, n)
		if err != nil {
			t.Fatalf("progen seed %d: %v", seed, err)
		}
		for _, p := range progs {
			detect.CheckFlowCSR(t, fmt.Sprintf("progen/%d/%d", seed, p.Index), lowerSrc(t, p.Fn, p.Src))
		}
	}
}

func TestFeedersMatchReferenceProgen(t *testing.T) {
	const n = 200
	for _, seed := range []int64{22, 1} {
		progs, err := progen.GenerateN(seed, n)
		if err != nil {
			t.Fatalf("progen seed %d: %v", seed, err)
		}
		for _, p := range progs {
			detect.CheckFeeders(t, fmt.Sprintf("progen/%d/%d", seed, p.Index), lowerSrc(t, p.Fn, p.Src), p.Fn)
		}
	}
}

func TestForwardPairsMatchReferenceProgen(t *testing.T) {
	const n = 200
	for _, seed := range []int64{22, 1} {
		progs, err := progen.GenerateN(seed, n)
		if err != nil {
			t.Fatalf("progen seed %d: %v", seed, err)
		}
		for _, p := range progs {
			detect.CheckForwardPairs(t, fmt.Sprintf("progen/%d/%d", seed, p.Index), lowerSrc(t, p.Fn, p.Src), p.Fn)
		}
	}
}

// TestRangeFactsMatchReference runs the range-rule reference check
// (rangeref_test.go) over every litmus case, every crypto public function
// and progen seeds 22 and 1, and requires the corpora to exercise both
// rules (only crypto's forwarding pairs reach a disjoint decision).
func TestRangeFactsMatchReference(t *testing.T) {
	type subject struct{ label, src, fn string }
	corpora := map[string][]subject{}
	for _, c := range litmus.All() {
		corpora["litmus"] = append(corpora["litmus"], subject{"litmus/" + c.Name, c.Source, c.Fn})
	}
	for _, lib := range cryptolib.All() {
		for _, fn := range lib.PublicFuncs {
			corpora["crypto"] = append(corpora["crypto"], subject{lib.Name + "/" + fn, lib.Source, fn})
		}
	}
	for _, seed := range []int64{22, 1} {
		progs, err := progen.GenerateN(seed, 200)
		if err != nil {
			t.Fatalf("progen seed %d: %v", seed, err)
		}
		for _, p := range progs {
			corpora["progen"] = append(corpora["progen"], subject{fmt.Sprintf("progen/%d/%d", seed, p.Index), p.Src, p.Fn})
		}
	}
	inBounds, disjoint := 0, 0
	for _, name := range []string{"litmus", "crypto", "progen"} {
		i0, d0 := inBounds, disjoint
		mods := map[string]*ir.Module{}
		for _, s := range corpora[name] {
			m := mods[s.src]
			if m == nil {
				m = lowerSrc(t, s.label, s.src)
				mods[s.src] = m
			}
			i, d := detect.CheckRangeFacts(t, s.label, m, s.fn)
			inBounds += i
			disjoint += d
		}
		t.Logf("%s: %d in-bounds and %d disjoint decisions match the reference", name, inBounds-i0, disjoint-d0)
	}
	if inBounds == 0 || disjoint == 0 {
		t.Errorf("%d in-bounds and %d disjoint decisions: the check is vacuous", inBounds, disjoint)
	}
}
