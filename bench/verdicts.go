package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"lcm/internal/core"
	"lcm/internal/cryptolib"
	"lcm/internal/detect"
	"lcm/internal/harness"
	"lcm/internal/litmus"
	"lcm/internal/progen"
)

// expectedJSON holds the answers no annotation in the corpus gives:
// the crypto corpus's transmitter counts and the pinned campaign's
// verdicts. Regenerate it with -update after a change that is meant to
// move them.
//
//go:embed testdata/expected.json
var expectedJSON []byte

// expected is the parsed form of testdata/expected.json.
type expected struct {
	// Crypto maps "library/engine" to per-class transmitter counts under
	// the crypto workload's configuration. crypto-nopresolve must match
	// them too: the pre-solver changes cost, never verdicts.
	Crypto map[string]map[string]int `json:"crypto"`
	// Conform holds the verdict of every program of one campaign.
	Conform struct {
		Seed     int64    `json:"seed"`
		Verdicts []string `json:"verdicts"`
	} `json:"conform"`
}

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	return &e, nil
}

var classes = []core.Class{core.DT, core.CT, core.UDT, core.UCT}

// checkCrypto compares each (library, engine) row's class counts with
// the pinned ones, and requires a finding in every function the corpus
// marks as an intentional gadget (Library.KnownGadgets).
func (e *expected) checkCrypto(libs []cryptolib.Library, rows []harness.Row) tally {
	var t tally
	found := map[string]bool{}
	for _, r := range rows {
		t.attempted += r.Funcs
		t.failed += r.TimedOut
		want := e.Crypto[r.App+"/"+r.Tool]
		for _, cl := range classes {
			if want == nil || r.Counts[cl] != want[cl.String()] {
				t.wrong++
				break
			}
		}
		for _, f := range r.Findings {
			found[r.App+"/"+f.Fn] = true
		}
	}
	for _, lib := range libs {
		for _, fn := range lib.KnownGadgets {
			if !found[lib.Name+"/"+fn] {
				t.wrong++
			}
		}
	}
	return t
}

// checkLitmus applies, case by case, the rules internal/litmus's tests
// derive from the hand-written Intended/Secure annotations.
func checkLitmus(suite string, rows []harness.Row) tally {
	var t tally
	cases := litmus.Suites()[suite]
	for _, r := range rows {
		e, err := detect.ParseEngine(r.Tool)
		if err != nil {
			continue // a baseline row: BH reports a flat count, no verdicts
		}
		t.attempted += r.Funcs
		t.failed += r.TimedOut
		for _, c := range cases {
			counts := map[core.Class]int{}
			seen := map[[2]int]bool{}
			n := 0
			for _, f := range r.Findings {
				if f.Fn != c.Fn {
					continue
				}
				n++
				if k := [2]int{f.Transmit, int(f.Class)}; !seen[k] {
					seen[k] = true
					counts[f.Class]++
				}
			}
			if !litmusVerdictOK(suite, e, c, counts, n) {
				t.wrong++
			}
		}
	}
	return t
}

// litmusVerdictOK is one case's rule: pht cases must show every intended
// class under Clou-pht (a universal control transmitter may surface as a
// plain CT through the same load); stl cases must leak under Clou-stl
// exactly when not marked secure; fwd and new cases must leak under
// Clou-pht; the taxonomy suites must show every intended class and stay
// clean on secure cases.
func litmusVerdictOK(suite string, e detect.Engine, c litmus.Case, counts map[core.Class]int, findings int) bool {
	switch suite {
	case "pht":
		return e != detect.PHT || c.Secure || intendedFound(c, counts, true)
	case "stl":
		return e != detect.STL || c.Secure == (findings == 0)
	case "fwd", "new":
		return e != detect.PHT || findings > 0
	}
	if c.Secure {
		return findings == 0
	}
	return intendedFound(c, counts, false)
}

func intendedFound(c litmus.Case, counts map[core.Class]int, uctAsCT bool) bool {
	for _, want := range c.Intended {
		if counts[want] == 0 && !(uctAsCT && want == core.UCT && counts[core.CT] > 0) {
			return false
		}
	}
	return true
}

// checkConform counts oracle failures as wrong verdicts and, for the
// pinned campaign, compares every program's verdict with the pinned one.
// A program fails when its verdict is not a decided leak or clean.
func (e *expected) checkConform(seed int64, progs []progen.ProgramResult, oracleFailures int) tally {
	t := tally{attempted: len(progs), wrong: oracleFailures}
	for i, p := range progs {
		switch p.Verdict {
		case "leak", "clean":
		default:
			t.failed++
		}
		if seed == e.Conform.Seed && (i >= len(e.Conform.Verdicts) || p.Verdict != e.Conform.Verdicts[i]) {
			t.wrong++
		}
	}
	return t
}

// update regenerates the expected answers from one untraced sample of
// crypto and of the pinned conform campaign, refusing to pin a run in
// which anything failed.
func update(path string) error {
	var e expected
	e.Crypto = map[string]map[string]int{}
	for _, lib := range cryptolib.All() {
		rows, err := harness.RunLibrary(lib, harness.Options{
			FuncTimeout: cryptoTimeout(lib), Parallelism: workers, CryptoUniversalOnly: true,
		})
		if err != nil {
			return err
		}
		for _, r := range rows {
			if r.TimedOut > 0 {
				return fmt.Errorf("%s/%s: %d analyses timed out", r.App, r.Tool, r.TimedOut)
			}
			counts := map[string]int{}
			for _, cl := range classes {
				counts[cl.String()] = r.Counts[cl]
			}
			e.Crypto[r.App+"/"+r.Tool] = counts
		}
	}
	out, err := progen.Run(progen.Options{Seed: pinnedCampaign, N: conformPrograms, Jobs: workers})
	if err != nil {
		return err
	}
	if len(out.Failures) > 0 {
		return fmt.Errorf("conform: %d oracle failures, first: %v", len(out.Failures), out.Failures[0])
	}
	e.Conform.Seed = pinnedCampaign
	for _, p := range out.Programs {
		e.Conform.Verdicts = append(e.Conform.Verdicts, p.Verdict)
	}
	data, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
