package progen

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lcm/internal/detect"
	"lcm/internal/repair"
)

// checkReference is Check on the per-oracle path: every oracle replays
// through RunOracle on source, each on a subject of its own, and each
// metamorphic oracle classifies its own base.
func checkReference(p Program) (Verdict, []Failure) {
	var fails []Failure
	add := func(f *Failure) {
		if f != nil {
			f.Seed, f.Index = p.Seed, p.Index
			if f.Src == "" {
				f.Src = p.Src
			}
			fails = append(fails, *f)
		}
	}
	if f := RunOracle("compile", p.Src, p.Fn); f != nil {
		add(f)
		return Verdict{Counts: map[string]int{}}, fails
	}
	v, err := classify(p.Src, p.Fn)
	if err != nil {
		add(&Failure{Oracle: "compile", Detail: err.Error()})
		return v, fails
	}
	for _, name := range []string{
		"repair-pht", "repair-stl", "repair-psf", "repair-imp", "repair-ss",
		"meta-alpha", "meta-dead", "meta-reorder", "presolve", "uarch"} {
		add(RunOracle(name, p.Src, p.Fn))
	}
	s, err := newSubject(p.Src, p.Fn)
	if err == nil {
		add(s.diffOracle(p.Gadget))
	}
	return v, fails
}

// corpusPrograms returns every .c file under testdata/dir as a program
// on "victim", with src extracting the source from the file.
func corpusPrograms(t *testing.T, dir string, src func([]byte) (string, error)) []Program {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("testdata", dir))
	if err != nil {
		return nil
	}
	var out []Program
	for i, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".c") {
			continue
		}
		data, err := os.ReadFile(filepath.Join("testdata", dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		s, err := src(data)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		out = append(out, Program{Index: i, Src: s, Fn: "victim"})
	}
	return out
}

// TestCheckMatchesReference: Check, whose oracles share one subject and
// one base verdict, returns the same verdict and the same failures, in
// the same order with the same details, as checkReference over the
// benchmark's pinned campaign, two more seeds, and every pinned
// regression and degradation program.
func TestCheckMatchesReference(t *testing.T) {
	var progs []Program
	for _, c := range []struct {
		seed int64
		n    int
	}{{22, 8}, {1, 24}, {5, 8}} {
		ps, err := GenerateN(c.seed, c.n)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, ps...)
	}
	progs = append(progs, corpusPrograms(t, "regressions", func(data []byte) (string, error) {
		_, src, err := ParseRegression(data)
		return src, err
	})...)
	progs = append(progs, corpusPrograms(t, "degradations", func(data []byte) (string, error) {
		d, err := ParseDegradation(data)
		return d.Src, err
	})...)
	for _, p := range progs {
		v, fails := Check(p)
		rv, rfails := checkReference(p)
		if !reflect.DeepEqual(v, rv) {
			t.Errorf("seed %d index %d: verdict %+v, reference %+v", p.Seed, p.Index, v, rv)
		}
		if !reflect.DeepEqual(fails, rfails) {
			t.Errorf("seed %d index %d: failures\n%v\nreference\n%v", p.Seed, p.Index, fails, rfails)
		}
	}
}

// TestCheckSharesOneFrontend: on a leaky gadget program, Check's oracles
// leave the shared module as it was and build its frontend once; every
// other analysis of the module is a cache hit.
func TestCheckSharesOneFrontend(t *testing.T) {
	p, err := Generate(22, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, f := compileOracle(p.Src)
	if f != nil {
		t.Fatal(f)
	}
	s := &subject{src: p.Src, fn: p.Fn, m: m, cache: detect.NewCache()}
	printed, fences := m.String(), repair.CountFences(m)

	v, fails := s.check(p)
	if len(fails) > 0 {
		t.Fatalf("oracle failures: %v", fails)
	}
	leaky := map[string]bool{}
	for k, n := range v.Counts {
		if n > 0 {
			leaky[k[:strings.IndexByte(k, '/')]] = true
		}
	}
	if p.Gadget == nil || v.Rung != detect.RungFull || len(leaky) < 2 {
		t.Fatalf("want a gadget decided at full precision with findings under several engines; gadget=%v rung=%v counts=%v",
			p.Gadget != nil, v.Rung, v.Counts)
	}

	if got := m.String(); got != printed {
		t.Errorf("shared module changed:\n--- before ---\n%s\n--- after ---\n%s", printed, got)
	}
	if got := repair.CountFences(m); got != fences {
		t.Errorf("shared module has %d fences, had %d", got, fences)
	}
	// One analysis per engine in classify and two more per engine in the
	// presolve oracle (pre-solver off, and audit). The repair oracles'
	// pre-checks, the presolve oracle's enabled run and the diff oracle
	// read classify's full-rung results.
	engines := int64(len(detect.Engines()))
	analyses := engines + 2*engines
	hits, misses := s.cache.Stats()
	if misses != 1 || hits != analyses-1 {
		t.Errorf("cache hits=%d misses=%d, want %d and 1", hits, misses, analyses-1)
	}
}

// BenchmarkCheckConform runs the benchmark's pinned conform campaign
// (seed 22, 8 programs) serially through Check; generation is untimed.
func BenchmarkCheckConform(b *testing.B) {
	progs, err := GenerateN(22, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, fails := Check(p); len(fails) > 0 {
				b.Fatalf("index %d: %v", p.Index, fails[0])
			}
		}
	}
}
