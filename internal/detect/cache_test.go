package detect

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"lcm/internal/cryptolib"
	"lcm/internal/obsv"
)

// TestCachedAnalysisMatchesUncached runs both engines over a corpus
// library with and without a shared Cache and requires identical findings:
// the cache must be a pure memoization, never an approximation.
func TestCachedAnalysisMatchesUncached(t *testing.T) {
	lib, ok := cryptolib.Lookup("tea")
	if !ok {
		t.Fatal("tea library missing from corpus")
	}
	m := compile(t, lib.Source)
	cache := NewCache()
	for _, mk := range []func() Config{DefaultPHT, DefaultSTL} {
		for _, fn := range lib.PublicFuncs {
			plain := mk()
			r1, err := AnalyzeFunc(m, fn, plain)
			if err != nil {
				t.Fatal(err)
			}
			cached := mk()
			cached.Cache = cache
			r2, err := AnalyzeFunc(m, fn, cached)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r1.Findings, r2.Findings) {
				t.Errorf("%s/%v: cached findings differ from uncached", fn, plain.Engine)
			}
		}
	}
}

// TestConcurrentDetectorsShareFrontend runs every engine over one
// function on several goroutines at once, as harness workers do, all
// reading one cached frontend (A-CFG closures and topological order,
// value-flow graph), each in its own engine order. Each
// result must equal an uncached serial run's. Run with -race -count=10:
// the frontend is shared state, and nothing in it may be filled in
// without synchronization.
func TestConcurrentDetectorsShareFrontend(t *testing.T) {
	lib, ok := cryptolib.Lookup("tea")
	if !ok {
		t.Fatal("tea corpus entry missing")
	}
	m := compile(t, lib.Source)
	const fn = "tea_decrypt"
	summary := func(r *Result) string {
		certs, err := json.Marshal(r.Certificates)
		if err != nil {
			t.Error(err)
		}
		return fmt.Sprintf("%v %v cand=%d pruned=%d q=%d skip=%d dis=%d %s",
			r.Findings, r.Counts(), r.Candidates, r.Pruned, r.Queries, r.SkippedQueries, r.Discharged, certs)
	}
	engines := Engines()
	want := map[Engine]string{}
	for _, e := range engines {
		r, err := AnalyzeFunc(m, fn, DefaultConfig(e))
		if err != nil {
			t.Fatal(err)
		}
		want[e] = summary(r)
	}
	cache := NewCache()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range engines {
				e := engines[(i+w)%len(engines)]
				cfg := DefaultConfig(e)
				cfg.Cache = cache
				r, err := AnalyzeFunc(m, fn, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if got := summary(r); got != want[e] {
					t.Errorf("worker %d, %v: result differs from a serial uncached run:\n got %s\nwant %s", w, e, got, want[e])
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCacheSharesFrontendAcrossEngines asserts the second engine over the
// same function is a frontend hit, and the counters advance.
func TestCacheSharesFrontendAcrossEngines(t *testing.T) {
	m := compile(t, spectreV1Src)
	cache := NewCache()

	pht := DefaultPHT()
	pht.Cache = cache
	r1, err := AnalyzeFunc(m, "victim", pht)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Error("first analysis reported a cache hit")
	}

	stl := DefaultSTL()
	stl.Cache = cache
	r2, err := AnalyzeFunc(m, "victim", stl)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Error("second engine did not hit the shared frontend")
	}

	hits, misses := cache.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("Stats() = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
}

// TestTimeoutBindsMidQuery is the FuncTimeout regression test: before the
// context plumbing, the budget was only polled between solver queries, so
// one slow SAT query could overshoot the timeout arbitrarily. A tiny
// timeout on the corpus's biggest function must now abort promptly and be
// reported as TimedOut.
func TestTimeoutBindsMidQuery(t *testing.T) {
	lib, ok := cryptolib.Lookup("donna")
	if !ok {
		t.Fatal("donna library missing from corpus")
	}
	m := compile(t, lib.Source)
	fn := lib.PublicFuncs[0]

	// Pre-warm the frontend so the timed run measures only the search and
	// solver phases — the phases the context must interrupt mid-query.
	cache := NewCache()
	if _, _, err := cache.frontend(m, fn, nil); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultPHT()
	cfg.Cache = cache
	cfg.Timeout = 50 * time.Millisecond

	start := time.Now()
	r, err := AnalyzeFunc(m, fn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if !r.TimedOut {
		// The whole analysis finishing under the budget would also be
		// fine, but then it must have been fast.
		if elapsed > time.Second {
			t.Fatalf("took %v with a 50ms budget and did not report TimedOut", elapsed)
		}
		t.Skip("analysis completed inside the 50ms budget on this machine")
	}
	// Generous bound: the abort must happen within the solver's poll
	// granularity, not after a full unbounded query.
	if elapsed > 2*time.Second {
		t.Fatalf("timed out but only after %v; budget was 50ms", elapsed)
	}
}

// TestFrontendStageTimesAddUp checks the frontend's stage spans: a cold
// build records every stage with a nonzero wall time, the stages fit
// inside the frontend span, and a cache hit records none of them.
func TestFrontendStageTimesAddUp(t *testing.T) {
	lib, ok := cryptolib.Lookup("secretbox")
	if !ok {
		t.Fatal("secretbox library missing from corpus")
	}
	m := compile(t, lib.Source)
	fn := lib.PublicFuncs[0]
	cfg := DefaultSTL()
	cfg.Cache = NewCache()
	tr := obsv.NewTracer()
	// analyze runs fn once under a fresh root span and returns the result
	// and the run's "frontend" span.
	analyze := func(root string) (*Result, *obsv.Span) {
		t.Helper()
		c := cfg
		c.Span = tr.Start(root)
		defer c.Span.End()
		r, err := AnalyzeFunc(m, fn, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, fs := range c.Span.Children() {
			for _, sp := range fs.Children() {
				if sp.Name() == "frontend" {
					return r, sp
				}
			}
		}
		t.Fatalf("%s: no frontend span", root)
		return nil, nil
	}

	_, fe := analyze("cold")
	var names []string
	var sum time.Duration
	for _, st := range fe.Children() {
		names = append(names, st.Name())
		if st.Wall() <= 0 {
			t.Errorf("%s stage span = %v on a cold build, want > 0", st.Name(), st.Wall())
		}
		sum += st.Wall()
	}
	if want := []string{"acfg", "alias", "taint", "reach", "flow"}; !reflect.DeepEqual(names, want) {
		t.Errorf("cold build stage spans %v, want %v", names, want)
	}
	if sum > fe.Wall() {
		t.Errorf("frontend stages sum to %v, more than the frontend span's %v", sum, fe.Wall())
	}
	hit, fe := analyze("hit")
	if !hit.CacheHit || len(fe.Children()) != 0 {
		t.Errorf("cache hit (%v) records %d stage spans", hit.CacheHit, len(fe.Children()))
	}
}
