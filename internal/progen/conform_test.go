package progen

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lcm/internal/campstore"
	"lcm/internal/obsv"
)

// The conformance sweep is parameterized from the command line so `make
// conform` can run a large pinned-seed campaign while plain `go test`
// keeps a small default budget:
//
//	go test ./internal/progen -run TestConformRun -conform.n 200 -conform.seed 1
var (
	conformN     = flag.Int("conform.n", 24, "programs per conformance sweep")
	conformSeed  = flag.Int64("conform.seed", 1, "generator seed for the conformance sweep")
	conformJobs  = flag.Int("conform.jobs", runtime.GOMAXPROCS(0), "conformance sweep worker width")
	conformStore = flag.String("conform.store", "", "campaign store directory (crash-safe, resumable; empty = in-memory run)")
)

// TestConformRun is the conformance harness entry point: generate the
// requested number of programs under the pinned seed, run every oracle
// family, and fail on any violation. Failures are ddmin-shrunk and written
// to testdata/regressions/ so they replay as ordinary go tests.
func TestConformRun(t *testing.T) {
	metrics := obsv.NewRegistry()
	tracer := obsv.NewTracer()
	root := tracer.Start("conform")
	opts := Options{
		Seed:    *conformSeed,
		N:       *conformN,
		Jobs:    *conformJobs,
		RegrDir: filepath.Join("testdata", "regressions"),
		DegrDir: filepath.Join("testdata", "degradations"),
		Metrics: metrics,
		Span:    root,
	}
	if *conformStore != "" {
		st, err := campstore.Open(*conformStore, campstore.Options{
			Seed: *conformSeed, N: *conformN, Worker: "conform-test", Metrics: metrics,
		})
		if err != nil {
			t.Fatalf("open campaign store %s: %v", *conformStore, err)
		}
		defer st.Close()
		opts.Store = st
	}
	out, err := Run(opts)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	byVerdict := map[string]int{}
	for _, r := range out.Programs {
		byVerdict[r.Verdict]++
	}
	t.Logf("seed=%d programs=%d leak=%d clean=%d fail=%d error=%d unknown=%d resumed=%d in %v",
		*conformSeed, len(out.Programs), byVerdict["leak"], byVerdict["clean"],
		byVerdict["fail"], byVerdict["error"], byVerdict["unknown"], out.Resumed, out.Wall)
	for _, f := range out.Failures {
		t.Errorf("%v", f.Error())
	}
	if len(out.Failures) > 0 {
		t.Logf("shrunk regressions written to %s", filepath.Join("testdata", "regressions"))
	}
}

// TestConformDeterminism: the same seed must produce a byte-identical
// normalized report at any worker width — serial and wide sweeps are
// interchangeable evidence.
func TestConformDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism sweep in -short mode")
	}
	render := func(jobs int) []byte {
		metrics := obsv.NewRegistry()
		tracer := obsv.NewTracer()
		root := tracer.Start("conform")
		out, err := Run(Options{Seed: 5, N: 8, Jobs: jobs, Metrics: metrics, Span: root})
		root.End()
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		// Report with a fixed workers value: the width under test is an
		// execution detail, not part of the outcome.
		rep := out.Report(5, 1, metrics, tracer)
		rep.Normalize()
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	wide := render(8)
	if !bytes.Equal(serial, wide) {
		t.Fatalf("report differs between -j1 and -j8:\n--- j1 ---\n%s\n--- j8 ---\n%s", serial, wide)
	}
}

// TestRegressionReplay re-runs every pinned regression in
// testdata/regressions/ through the oracle that originally caught it.
// A fixed bug must stay fixed: the oracle must pass on the shrunk program.
func TestRegressionReplay(t *testing.T) {
	dir := filepath.Join("testdata", "regressions")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Skipf("no regression corpus: %v", err)
	}
	ran := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".c") {
			continue
		}
		ran++
		t.Run(e.Name(), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			oracle, src, err := ParseRegression(data)
			if err != nil {
				t.Fatalf("bad regression header: %v", err)
			}
			if f := RunOracle(oracle, src, "victim"); f != nil {
				t.Errorf("regression reproduces: %s", f.Detail)
			}
		})
	}
	if ran == 0 {
		t.Skip("regression corpus is empty")
	}
}

// TestWriteRegressionRoundTrip: a written regression parses back to the
// same oracle name and carries the full source.
func TestWriteRegressionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := Failure{
		Oracle: "repair-pht",
		Detail: "2 finding(s) remain after 1 fences / 3 rounds\nsecond line",
		Src:    "uint8_t tmp;\nuint32_t victim(uint32_t y) {\n\treturn y;\n}\n",
		Seed:   17,
		Index:  4,
	}
	if err := WriteRegression(dir, f); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "repair-pht-seed17-idx4.c"))
	if err != nil {
		t.Fatal(err)
	}
	oracle, src, err := ParseRegression(data)
	if err != nil {
		t.Fatal(err)
	}
	if oracle != "repair-pht" {
		t.Fatalf("oracle = %q, want repair-pht", oracle)
	}
	if !strings.Contains(src, "victim") {
		t.Fatalf("source lost in round trip:\n%s", src)
	}
}

// TestBudgetSkips: an already-expired budget marks all programs skipped
// instead of hanging or failing.
func TestBudgetSkips(t *testing.T) {
	out, err := Run(Options{Seed: 1, N: 3, Jobs: 1, Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Programs {
		if r.Verdict != "skipped" {
			t.Fatalf("program %d verdict %q, want skipped", r.Index, r.Verdict)
		}
	}
}
