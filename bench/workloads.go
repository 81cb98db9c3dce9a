package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"lcm/internal/campstore"
	"lcm/internal/cryptolib"
	"lcm/internal/harness"
	"lcm/internal/ir"
	"lcm/internal/litmus"
	"lcm/internal/lower"
	"lcm/internal/minic"
	"lcm/internal/progen"
)

// workers is the pool width of every untraced sample: the benchmark
// machine has two CPUs, and GOMAXPROCS is pinned to the same number.
const workers = 2

const (
	// litmusSweeps is the number of full passes over the seven litmus
	// suites in one litmus sample; one pass takes about 15 ms, too short
	// to time against the calibration kernel.
	litmusSweeps = 20
	// pinnedCampaign and conformPrograms fix the conform workload's
	// progen campaign. Its eight programs each take 10–310 ms to check,
	// so the pass spreads over both workers; under campaign seed 1,
	// program 0 alone takes 7 s and the sample is one serial item.
	pinnedCampaign  = 22
	conformPrograms = 8
)

// tally counts the items of one or more samples: analyses (crypto,
// litmus) or programs (conform) attempted, those that failed — an error,
// a timeout, or a verdict below full precision — and those whose verdict
// differs from the expected answer.
type tally struct {
	attempted, failed, wrong int
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
}

// workload is one benchmark input set.
type workload struct {
	name string
	// setup is one repetition of the set-up the workload's first sample
	// pays once: parsing and lowering its sources (and, for conform,
	// generating them).
	setup func() error
	// run is one sample through the entry points the command-line tools
	// use, at opts.Parallelism workers, recording spans into opts.Tracer
	// and counters into opts.Metrics where those are set.
	run func(opts harness.Options) (tally, error)
	// probe times each layer on the sample's inputs (see prober).
	probe func(p *prober) error
	// work names the layers whose spans are the units of work a sample
	// does: analyses, baseline runs, or programs. The first is the one
	// whose time the parts decompose.
	work, parts []string
	// agree names the registry counters a traced and an untraced sample
	// must report identically: output is deterministic at any width.
	agree []string
}

var workloadNames = []string{"crypto", "crypto-nopresolve", "litmus", "conform"}

// options fixes what a workload's inputs depend on.
type options struct {
	seed         int64  // orders the suites of each litmus sweep
	campaignSeed int64  // conform's progen campaign
	workDir      string // conform's campaign stores live here
	exp          *expected
}

func newWorkload(name string, o options) (*workload, error) {
	switch name {
	case "crypto", "crypto-nopresolve":
		// Table 2 order, whatever the seed: the library order sets the
		// garbage collector's pacing when donna starts, and with it the
		// sample's peak resident set (up to 10% apart between orders).
		return cryptoWorkload(name, cryptolib.All(), name == "crypto-nopresolve", o.exp), nil
	case "litmus":
		suites := []string{"pht", "stl", "fwd", "new", "psf", "imp", "ss"}
		rng := rand.New(rand.NewSource(o.seed))
		rng.Shuffle(len(suites), func(i, j int) { suites[i], suites[j] = suites[j], suites[i] })
		return litmusWorkload(suites, litmusSweeps), nil
	case "conform":
		return conformWorkload(o.campaignSeed, conformPrograms, o.workDir, o.exp), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

var (
	detectParts = []string{"detect.frontend", "detect.encode", "detect.search"}
	detectAgree = []string{"detect.queries", "presolve.skipped_queries", "detect.candidates"}
)

// cryptoTimeout is the per-function budget: 5 s, and 30 s for donna,
// whose scalar multiplication dwarfs the rest of the corpus.
func cryptoTimeout(lib cryptolib.Library) time.Duration {
	if lib.Name == "donna" {
		return 30 * time.Second
	}
	return 5 * time.Second
}

// cryptoWorkload is Table 2's crypto rows: every library under Clou-pht
// and Clou-stl, universal transmitters only.
func cryptoWorkload(name string, libs []cryptolib.Library, noPresolve bool, exp *expected) *workload {
	w := &workload{name: name, work: []string{"detect.analyze"}, parts: detectParts, agree: detectAgree}
	w.setup = func() error {
		for _, lib := range libs {
			if _, err := compile(lib.Source); err != nil {
				return fmt.Errorf("%s: %w", lib.Name, err)
			}
		}
		return nil
	}
	w.run = func(opts harness.Options) (tally, error) {
		opts.CryptoUniversalOnly, opts.NoPresolve = true, noPresolve
		var rows []harness.Row
		for _, lib := range libs {
			opts.FuncTimeout = cryptoTimeout(lib)
			r, err := harness.RunLibrary(lib, opts)
			if err != nil {
				return tally{}, err
			}
			rows = append(rows, r...)
		}
		return exp.checkCrypto(libs, rows), nil
	}
	w.probe = func(p *prober) error {
		for _, lib := range libs {
			if err := p.source(lib.Name, lib.Source, lib.PublicFuncs); err != nil {
				return err
			}
		}
		return nil
	}
	return w
}

// litmusTimeout is the per-function budget of the litmus suites.
const litmusTimeout = 5 * time.Second

// litmusWorkload is Table 2's litmus rows, swept repeatedly: many tiny
// functions, so fixed cost per function dominates, plus the BH-style
// baseline rows no other workload runs.
func litmusWorkload(suites []string, sweeps int) *workload {
	w := &workload{
		name: "litmus", work: []string{"detect.analyze", "baseline.analyze"},
		parts: detectParts, agree: detectAgree,
	}
	w.setup = func() error {
		for _, suite := range suites {
			for _, c := range litmus.Suites()[suite] {
				if _, err := compile(c.Source); err != nil {
					return fmt.Errorf("%s: %w", c.Name, err)
				}
			}
		}
		return nil
	}
	w.run = func(opts harness.Options) (tally, error) {
		opts.FuncTimeout = litmusTimeout
		var t tally
		for s := 0; s < sweeps; s++ {
			harness.ResetFrontendCache()
			for _, suite := range suites {
				rows, err := harness.RunLitmusSuite(suite, opts)
				if err != nil {
					return t, err
				}
				t.add(checkLitmus(suite, rows))
			}
		}
		return t, nil
	}
	w.probe = func(p *prober) error {
		for s := 0; s < sweeps; s++ {
			for _, suite := range suites {
				for _, c := range litmus.Suites()[suite] {
					if err := p.source(c.Name, c.Source, []string{c.Fn}); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	return w
}

// conformWorkload is one progen campaign backed by a fresh campaign
// store: generation, all five engines, repair, the metamorphic rewrites,
// the uarch oracle, and the store's write path.
func conformWorkload(seed int64, n int, workDir string, exp *expected) *workload {
	w := &workload{
		name: "conform", work: []string{"progen.item"},
		parts: append([]string{"progen.generate"}, prefixed("progen.", progen.Oracles())...),
		agree: []string{"store.wal_appends"},
	}
	stores := 0
	w.setup = func() error {
		for i := 0; i < n; i++ {
			p, err := progen.Generate(seed, i)
			if err != nil {
				return err
			}
			if _, err := compile(p.Src); err != nil {
				return fmt.Errorf("program %d: %w", i, err)
			}
		}
		return nil
	}
	w.run = func(opts harness.Options) (tally, error) {
		stores++
		dir := filepath.Join(workDir, fmt.Sprintf("store-%d", stores))
		st, err := campstore.Open(dir, campstore.Options{Seed: seed, N: n, Worker: "bench", Metrics: opts.Metrics})
		if err != nil {
			return tally{}, err
		}
		// Close persists nothing (every record was fsynced on write), and
		// the directory is temporary: neither error changes a result.
		defer func() { st.Close(); os.RemoveAll(dir) }()
		root := opts.Tracer.Start("conform")
		out, err := progen.Run(progen.Options{
			Seed: seed, N: n, Jobs: opts.Parallelism, Store: st, Metrics: opts.Metrics, Span: root,
		})
		root.End()
		if err != nil {
			return tally{}, err
		}
		return exp.checkConform(seed, out.Programs, len(out.Failures)), nil
	}
	w.probe = func(p *prober) error {
		for i := 0; i < n; i++ {
			if err := p.program(seed, i); err != nil {
				return err
			}
		}
		return nil
	}
	return w
}

// program probes generated program i: its generation, its layers, and
// each oracle progen.Check runs, timed on its own through
// progen.RunOracle. RunOracle passes over the differential oracles,
// which need the generated gadget only Check has, so their spans are
// empty; the degradation-ladder classification Check runs first has no
// public entry point and is not probed.
func (p *prober) program(seed int64, i int) error {
	name := fmt.Sprintf("prog-%04d", i)
	sp := p.item(name)
	defer sp.End()
	var (
		prog progen.Program
		err  error
	)
	do(sp, "progen.generate", func() { prog, err = progen.Generate(seed, i) })
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := p.module(sp, prog.Src, []string{prog.Fn}); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for _, o := range progen.Oracles() {
		do(sp, "progen."+o, func() { progen.RunOracle(o, prog.Src, prog.Fn) })
	}
	return nil
}

func prefixed(prefix string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = prefix + n
	}
	return out
}

// compile parses and lowers one mini-C source.
func compile(src string) (*ir.Module, error) {
	f, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	return lower.Module(f)
}
