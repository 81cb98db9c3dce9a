package repair_test

// Differential check of repair's hitting-set construction against the
// reference implementations in repair_test.go, over the litmus suite and
// the conform benchmark's progen campaign, and the benchmark that repairs
// that campaign. progen imports repair, so both live in the external test
// package.

import (
	"fmt"
	"testing"
	"time"

	"lcm/internal/aeg"
	"lcm/internal/detect"
	"lcm/internal/ir"
	"lcm/internal/litmus"
	"lcm/internal/lower"
	"lcm/internal/minic"
	"lcm/internal/progen"
	"lcm/internal/repair"
)

// campaignSeed and campaignPrograms pin the conform benchmark's campaign.
const (
	campaignSeed     = 22
	campaignPrograms = 8
)

func compile(tb testing.TB, src string) *ir.Module {
	tb.Helper()
	f, err := minic.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := lower.Module(f)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// conformCfg is the configuration progen's repair oracles run under.
func conformCfg(e detect.Engine) detect.Config {
	cfg := detect.DefaultConfig(e)
	cfg.AEG = aeg.Options{ROB: 250, LSQ: 250, Wsize: 250}
	cfg.Timeout = 60 * time.Second
	return cfg
}

func campaign(tb testing.TB) []progen.Program {
	tb.Helper()
	ps, err := progen.GenerateN(campaignSeed, campaignPrograms)
	if err != nil {
		tb.Fatal(err)
	}
	return ps
}

func TestHittingSetMatchesReference(t *testing.T) {
	leaky := 0
	check := func(name, src, fn string, cfg detect.Config) {
		res, err := detect.AnalyzeFunc(compile(t, src), fn, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Findings) > 0 {
			leaky++
		}
		repair.CheckHittingSet(t, name, res)
	}
	for _, e := range detect.Engines() {
		for _, c := range litmus.All() {
			check(c.Name+"/"+e.String(), c.Source, c.Fn, detect.DefaultConfig(e))
		}
		for _, p := range campaign(t) {
			check(fmt.Sprintf("progen-%d-%d/%s", p.Seed, p.Index, e), p.Src, p.Fn, conformCfg(e))
		}
	}
	if leaky == 0 {
		t.Fatal("no subject has findings: nothing was compared")
	}
}

// BenchmarkMinimalFencesConform repairs the conform benchmark's campaign,
// progen seed 22's eight programs, under all five engines. Its CPU profile
// is repair's fence minimisation plus the detection rounds around it:
//
//	make profile BENCH=BenchmarkMinimalFencesConform
func BenchmarkMinimalFencesConform(b *testing.B) {
	ps := campaign(b)
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			for _, e := range detect.Engines() {
				if _, err := repair.Repair(compile(b, p.Src), p.Fn, conformCfg(e), 0); err != nil {
					b.Fatalf("progen-%d-%d/%s: %v", p.Seed, p.Index, e, err)
				}
			}
		}
	}
}
