// Command benchjson runs the evaluation sweeps — the Table 2 litmus
// suites, the crypto-library corpus, and the Fig. 8 series — under the
// parallel harness and emits machine-readable timings as JSON, one entry
// per workload:
//
//	{"litmus-pht": {"ns_per_op": ..., "workers": 4, "queries": ...,
//	                "nopresolve_ns_per_op": ..., "ablation_ratio": ...,
//	                "sweep": [{"workers": 1, "ns_per_op": ...}, ...]}, ...}
//
// It exists so `make bench` leaves a diffable artifact (BENCH_parallel.json)
// rather than scrolling text. The numbers come from the observability
// layer rather than ad-hoc stopwatches: each workload runs under its own
// obsv.Tracer/Registry, ns_per_op is the workload root span's wall time,
// and queries/cache_hits are the detect.* counter deltas its registry
// accumulated (warm second engines and repeated sweeps drive hits up).
//
// Every workload is measured once per worker count in the sweep set
// ({1, 8}, plus -j when distinct), with the process-wide frontend cache
// reset before each run so every point is a cold, comparable start. The
// flat top-level fields keep the historical shape and report the -j run;
// the "sweep" array carries the scaling curve. Unless -nopresolve flips
// the whole run, each workload is additionally measured once at -j width
// with the static pre-solver disabled — the ablation column — and
// -assert-ablation R fails the run if any workload's ablation is more
// than R times slower than its presolve run (the incremental solver must
// keep the residual path competitive even when *every* query reaches it).
//
// Usage:
//
//	benchjson [-j N] [-timeout 5s] [-donna-timeout 30s] [-o BENCH_parallel.json]
//	benchjson -litmus-only -assert-ablation 3 -o BENCH_smoke.json   # CI smoke scale
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"lcm/internal/campstore"
	"lcm/internal/cryptolib"
	"lcm/internal/harness"
	"lcm/internal/obsv"
)

// point is one worker-count measurement of a workload.
type point struct {
	Workers int   `json:"workers"`
	NsPerOp int64 `json:"ns_per_op"`
}

// entry is one workload's record in the output JSON. The flat fields
// describe the -j run; Sweep holds every measured worker count.
type entry struct {
	NsPerOp   int64 `json:"ns_per_op"`
	Workers   int   `json:"workers"`
	Queries   int64 `json:"queries"`
	CacheHits int64 `json:"cache_hits"`
	// Pre-solver counters: candidates discharged statically and solver
	// queries avoided. With -nopresolve both are zero and Queries is the
	// ablation baseline.
	Discharged     int64 `json:"discharged"`
	SkippedQueries int64 `json:"skipped_queries"`
	// Incremental-solver counters of the -j run: Tseitin gates emitted
	// and queries answered by the model cache without a search.
	TseitinGates int64 `json:"tseitin_gates"`
	ModelHits    int64 `json:"model_hits"`
	// Ablation column: the same workload at -j width with the static
	// pre-solver disabled, so every candidate reaches the incremental
	// solver. AblationRatio = NoPresolveNs / NsPerOp. Zero when the whole
	// run is already an ablation (-nopresolve).
	NoPresolveNs  int64   `json:"nopresolve_ns_per_op,omitempty"`
	AblationRatio float64 `json:"ablation_ratio,omitempty"`

	Sweep []point `json:"sweep"`
}

func main() {
	par := flag.Int("j", runtime.GOMAXPROCS(0), "worker-pool size reported in the flat fields")
	timeout := flag.Duration("timeout", 5*time.Second, "per-function budget for litmus suites and libraries")
	donnaTimeout := flag.Duration("donna-timeout", 30*time.Second, "per-function budget for donna (its scalar mult dwarfs the rest)")
	out := flag.String("o", "BENCH_parallel.json", "output path")
	noPresolve := flag.Bool("nopresolve", false, "disable the static pre-solver everywhere (the whole run becomes the ablation baseline; skips the per-workload ablation column)")
	litmusOnly := flag.Bool("litmus-only", false, "measure only the litmus suites (CI smoke scale; skips the crypto corpus and Fig. 8)")
	assertAblation := flag.Float64("assert-ablation", 0, "fail if any workload's -nopresolve run is more than this factor slower than its presolve run (0 disables)")
	flag.Parse()

	// The sweep set: single-threaded and wide, plus the -j width when it
	// is neither (so the flat fields always describe a measured run).
	sweep := []int{1, 8}
	if *par != 1 && *par != 8 {
		sweep = append(sweep, *par)
	}

	results := map[string]entry{}
	exit := 0
	// record measures one workload at every sweep width, then (unless the
	// whole run is an ablation) once more at -j width with the pre-solver
	// off for the ablation column. Each run gets a fresh tracer/registry
	// pair and a cold frontend cache, and reads its timing and counters
	// back from the observability layer.
	record := func(name string, f func(workers int, noPresolve bool, tr *obsv.Tracer, reg *obsv.Registry) error) {
		e := entry{Workers: *par}
		measure := func(w int, ablate bool) (time.Duration, obsv.SnapshotData) {
			harness.ResetFrontendCache()
			tr := obsv.NewTracer()
			reg := obsv.NewRegistry()
			if err := f(w, ablate, tr, reg); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %s (j=%d nopresolve=%v): %v\n", name, w, ablate, err)
				os.Exit(1)
			}
			var elapsed time.Duration
			for _, root := range tr.Roots() {
				elapsed += root.Wall()
			}
			return elapsed, reg.Snapshot()
		}
		for _, w := range sweep {
			elapsed, snap := measure(w, *noPresolve)
			e.Sweep = append(e.Sweep, point{Workers: w, NsPerOp: elapsed.Nanoseconds()})
			if w == *par || e.NsPerOp == 0 {
				e.NsPerOp = elapsed.Nanoseconds()
				e.Queries = snap.Counters["detect.queries"]
				e.CacheHits = snap.Counters["detect.cache_hits"]
				e.Discharged = snap.Counters["presolve.discharged"]
				e.SkippedQueries = snap.Counters["presolve.skipped_queries"]
				e.TseitinGates = snap.Counters["smt.tseitin_gates"]
				e.ModelHits = snap.Counters["smt.model_hits"]
			}
			fmt.Printf("%-22s j=%-2d %12v  queries=%-6d cache-hits=%d discharged=%d skipped=%d\n",
				name, w, elapsed.Round(time.Millisecond), snap.Counters["detect.queries"],
				snap.Counters["detect.cache_hits"], snap.Counters["presolve.discharged"],
				snap.Counters["presolve.skipped_queries"])
		}
		// The storage workload never consults the pre-solver: an ablation
		// column would compare two identical fsync-bound runs and gate CI
		// on scheduler noise.
		if !*noPresolve && name != "campstore" {
			elapsed, snap := measure(*par, true)
			e.NoPresolveNs = elapsed.Nanoseconds()
			if e.NsPerOp > 0 {
				e.AblationRatio = float64(e.NoPresolveNs) / float64(e.NsPerOp)
			}
			fmt.Printf("%-22s j=%-2d %12v  queries=%-6d [nopresolve ablation, ratio=%.2f]\n",
				name, *par, elapsed.Round(time.Millisecond), snap.Counters["detect.queries"], e.AblationRatio)
			// Sub-5ms workloads are scheduler noise: a ratio computed from
			// two ~1ms wall times says nothing about solver throughput, so
			// the gate only applies once either side is measurable.
			measurable := e.NsPerOp >= (5*time.Millisecond).Nanoseconds() ||
				e.NoPresolveNs >= (5*time.Millisecond).Nanoseconds()
			if *assertAblation > 0 && measurable && e.AblationRatio > *assertAblation {
				fmt.Fprintf(os.Stderr, "benchjson: %s: ablation ratio %.2f exceeds -assert-ablation %.2f\n",
					name, e.AblationRatio, *assertAblation)
				exit = 1
			}
		}
		results[name] = e
	}

	// Campaign-store throughput: claim+complete WAL round trips (one
	// fsync each) racing across the worker count — the per-verdict
	// storage cost a `clou -gen -store` campaign pays. The pre-solver
	// ablation is meaningless here; the ratio just reads ~1.
	record("campstore", func(workers int, _ bool, tr *obsv.Tracer, reg *obsv.Registry) error {
		root := tr.Start("campstore")
		defer root.End()
		const ops = 256
		dir, err := os.MkdirTemp("", "campstore-bench")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, err := campstore.Open(dir, campstore.Options{
			Seed: 1, N: ops, Worker: "bench", Metrics: reg, CompactBytes: -1,
		})
		if err != nil {
			return err
		}
		defer st.Close()
		payload := []byte(`{"bench":true}`)
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			go func() {
				for {
					l, ok, err := st.ClaimNext()
					if err != nil || !ok {
						errs <- err
						return
					}
					if err := st.Complete(l, payload); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		for w := 0; w < workers; w++ {
			if err := <-errs; err != nil {
				return err
			}
		}
		if !st.Done() {
			return fmt.Errorf("campstore bench finished %d/%d ops", st.CompletedCount(), ops)
		}
		return nil
	})

	for _, suite := range []string{"pht", "stl", "fwd", "new", "psf", "imp", "ss"} {
		suite := suite
		record("litmus-"+suite, func(workers int, ablate bool, tr *obsv.Tracer, reg *obsv.Registry) error {
			_, err := harness.RunLitmusSuite(suite, harness.Options{
				FuncTimeout: *timeout, Parallelism: workers, Tracer: tr, Metrics: reg,
				NoPresolve: ablate,
			})
			return err
		})
	}

	if *litmusOnly {
		writeResults(*out, results)
		os.Exit(exit)
	}

	for _, lib := range cryptolib.All() {
		lib := lib
		ft := *timeout
		if lib.Name == "donna" {
			ft = *donnaTimeout
		}
		record(lib.Name, func(workers int, ablate bool, tr *obsv.Tracer, reg *obsv.Registry) error {
			_, err := harness.RunLibrary(lib, harness.Options{
				FuncTimeout: ft, Parallelism: workers, CryptoUniversalOnly: true,
				Tracer: tr, Metrics: reg, NoPresolve: ablate,
			})
			return err
		})
	}

	record("fig8", func(workers int, ablate bool, tr *obsv.Tracer, reg *obsv.Registry) error {
		_, err := harness.RunFig8(harness.Options{
			FuncTimeout: *timeout, Parallelism: workers, Tracer: tr, Metrics: reg,
			NoPresolve: ablate,
		})
		return err
	})

	writeResults(*out, results)
	os.Exit(exit)
}

// writeResults marshals the workload map and writes the JSON artifact.
func writeResults(path string, results map[string]entry) {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d workloads)\n", path, len(results))
}
