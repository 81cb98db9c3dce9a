package detect_test

// The indexed data.rf build against the pairwise store × load scan, over
// every corpus: the CSR arrays must be identical, not just equivalent.
// The progen legs of the feeder-relation and forwarding-pair checks live
// here too: progen imports detect.

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
