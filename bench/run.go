package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lcm/internal/harness"
	"lcm/internal/obsv"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions, and bounds; bench_test.go keeps the two in
// step.
type metricDef struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // tolerated worsening, as a share of the parent's median (end-to-end metrics only)
}

// endToEnd are the metrics of an untraced run, the same for every
// workload. Failures and wrong verdicts are the result's failed and
// correct fields: they are zero whenever the benchmark passes, and a
// metric that is zero has no median to bound against.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "pass_s", unit: "s", better: "lower", bound: 0.10},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10},
}

// perLayer are the metrics of a traced run. Times of layers that run in
// every workload are calibrated milliseconds. Layers that run in only
// some workloads (the solver, the baseline, progen's oracles) are shares
// of their parent's time, which read 0% where the layer does not run.
var perLayer = []metricDef{
	{name: "minic.parse_ms", unit: "ms", better: "lower"},
	{name: "lower.module_ms", unit: "ms", better: "lower"},
	{name: "lower.instrs", unit: "count", better: "lower"},
	{name: "dataflow.ranges_ms", unit: "ms", better: "lower"},
	{name: "acfg.build_ms", unit: "ms", better: "lower"},
	{name: "acfg.nodes", unit: "count", better: "lower"},
	{name: "alias.analyze_ms", unit: "ms", better: "lower"},
	{name: "alias.alloc_mb", unit: "MB", better: "lower"},
	{name: "taint.analyze_ms", unit: "ms", better: "lower"},
	{name: "presolve.facts_ms", unit: "ms", better: "lower"},
	{name: "aeg.build_ms", unit: "ms", better: "lower"},
	{name: "aeg.alloc_mb", unit: "MB", better: "lower"},
	{name: "detect.analyze_ms", unit: "ms", better: "lower"},
	{name: "detect.frontend_ms", unit: "ms", better: "lower"},
	{name: "detect.search_ms", unit: "ms", better: "lower"},
	{name: "detect.candidates", unit: "count", better: "lower"},
	{name: "detect.pruned", unit: "count", better: "higher"},
	{name: "detect.findings", unit: "count", better: "higher"},
	{name: "presolve.discharged", unit: "count", better: "higher"},
	{name: "presolve.skipped_queries", unit: "count", better: "higher"},
	{name: "presolve.decided_ratio", unit: "ratio", better: "higher"},
	{name: "sat.solve_pct", unit: "%", better: "lower"},
	{name: "sat.queries", unit: "count", better: "lower"},
	{name: "sat.decisions", unit: "count", better: "lower"},
	{name: "sat.propagations", unit: "count", better: "lower"},
	{name: "sat.conflicts", unit: "count", better: "lower"},
	{name: "smt.model_hits", unit: "count", better: "higher"},
	{name: "smt.memo_hits", unit: "count", better: "higher"},
	{name: "smt.tseitin_gates", unit: "count", better: "lower"},
	{name: "baseline.analyze_pct", unit: "%", better: "lower"},
	{name: "progen.repair-pht_pct", unit: "%", better: "lower"},
	{name: "progen.repair-stl_pct", unit: "%", better: "lower"},
	{name: "progen.repair-psf_pct", unit: "%", better: "lower"},
	{name: "progen.repair-imp_pct", unit: "%", better: "lower"},
	{name: "progen.repair-ss_pct", unit: "%", better: "lower"},
	{name: "progen.meta_pct", unit: "%", better: "lower"},
	{name: "progen.presolve_pct", unit: "%", better: "lower"},
	{name: "progen.uarch_pct", unit: "%", better: "lower"},
	{name: "campstore.wal_appends", unit: "count", better: "lower"},
	{name: "campstore.fsyncs", unit: "count", better: "lower"},
	{name: "harness.critical_path_ms", unit: "ms", better: "lower"},
	{name: "harness.idle_ratio", unit: "ratio", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_cpu_s", unit: "s", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.coverage_ratio", unit: "ratio", better: "higher"},
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run, with its keys in this order;
// encoding/json writes the metric names sorted.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is how long and how often a run measures, and where it
// writes.
type runConfig struct {
	seconds time.Duration
	// Set-up is timed setupBatches times, setupReps repetitions back to
	// back per batch, each batch between a pair of kernels of its own.
	setupBatches, setupReps int
	traceFile               string // the traced run's spans; "" writes none
}

// usage is the process's resource counters at one instant.
type usage struct {
	alloc    uint64        // bytes allocated so far (MemStats.TotalAlloc)
	cpu      time.Duration // user plus system CPU time
	gcCycles uint64
	gcCPU    float64 // seconds of CPU spent in the garbage collector
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return usage{
		alloc:    ms.TotalAlloc,
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCycles: s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
	}
}

// resetPeakRSS restarts the resident-set high-water mark the kernel
// keeps for the process, so that peakRSS reports the peak of one
// interval. Where /proc/self/clear_refs refuses it, peakRSS reports the
// process's lifetime peak instead.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	defer f.Close()
	_, _ = f.WriteString("5") // failure leaves the lifetime peak, see above
}

// peakRSS returns the resident-set high-water mark in bytes: VmHWM from
// /proc/self/status, or getrusage's lifetime peak where that is missing.
func peakRSS() uint64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return uint64(ru.Maxrss) * 1024
}

// meter runs every measured interval between two calibration kernels.
// Before each kernel it drops the frontend cache, so every sample starts
// cold, and collects garbage, so the heap the previous sample retained
// stays out of both the kernel and the next sample. Neighbouring
// intervals share the kernel between them.
type meter struct {
	kernels []float64 // seconds, in run order
}

func newMeter() *meter {
	m := &meter{}
	m.kernel()
	return m
}

func (m *meter) kernel() float64 {
	harness.ResetFrontendCache()
	runtime.GC()
	k := kernel().Seconds()
	m.kernels = append(m.kernels, k)
	return k
}

// interval is one measured call.
type interval struct {
	raw     time.Duration
	kernel  float64 // mean of the kernels just before and just after, s
	used    usage   // counter deltas over the call
	peakRSS uint64  // resident-set peak during the call, bytes
}

func (m *meter) measure(f func() error) (interval, error) {
	before := m.kernels[len(m.kernels)-1]
	u0 := readUsage()
	resetPeakRSS()
	start := time.Now()
	err := f()
	raw := time.Since(start)
	peak := peakRSS()
	u1 := readUsage()
	iv := interval{raw: raw, kernel: (before + m.kernel()) / 2, peakRSS: peak, used: usage{
		alloc:    u1.alloc - u0.alloc,
		cpu:      u1.cpu - u0.cpu,
		gcCycles: u1.gcCycles - u0.gcCycles,
		gcCPU:    u1.gcCPU - u0.gcCPU,
	}}
	return iv, err
}

// reporter collects a run's metrics and prints each with its spread
// and, for times, the raw wall time and kernel time it was calibrated
// from.
type reporter struct {
	w        io.Writer
	workload string
	metrics  map[string]metric
}

// put records the median of vals. For calibrated times, raws and
// kernels hold the uncalibrated values and the kernel times behind them.
func (r *reporter) put(d metricDef, vals, raws, kernels []float64) {
	med, p25, p75 := quartiles(vals)
	r.metrics[d.name] = metric{Value: med, Unit: d.unit}
	line := fmt.Sprintf("%-18s %-26s %14.6g %-5s p25=%.6g p75=%.6g n=%d", r.workload, d.name, med, d.unit, p25, p75, len(vals))
	if raws != nil {
		line += fmt.Sprintf("  raw=%.6g kernel=%.4gs", median(raws), median(kernels))
	}
	fmt.Fprintln(r.w, line)
}

// timed splits intervals into calibrated seconds, raw seconds, and
// kernel seconds.
func timed(ivs []interval) (cal, raw, kern []float64) {
	for _, iv := range ivs {
		cal = append(cal, calibrate(iv.raw, iv.kernel))
		raw = append(raw, iv.raw.Seconds())
		kern = append(kern, iv.kernel)
	}
	return cal, raw, kern
}

// runUntraced measures a workload's end-to-end metrics: set-up in
// rc.setupBatches batches of rc.setupReps repetitions, one warm-up
// sample, then samples until rc.seconds have passed (at least one).
func runUntraced(w *workload, rc runConfig, out io.Writer) (result, fingerprint, error) {
	m := newMeter()
	// Each repetition takes a few milliseconds, far less than a kernel, so
	// a batch runs them back to back between one pair of kernels. One
	// pair calibrates by the host's speed at one moment, which varies
	// 10–20% from the next; several batches average it.
	var setup []interval
	for b := 0; b < rc.setupBatches; b++ {
		var reps []time.Duration
		batch, err := m.measure(func() error {
			for i := 0; i < rc.setupReps; i++ {
				start := time.Now()
				if err := w.setup(); err != nil {
					return err
				}
				reps = append(reps, time.Since(start))
			}
			return nil
		})
		if err != nil {
			return result{}, fingerprint{}, fmt.Errorf("set-up: %w", err)
		}
		for _, d := range reps {
			setup = append(setup, interval{raw: d, kernel: batch.kernel})
		}
	}
	var t tally
	sample := func() error {
		s, err := w.run(harness.Options{Parallelism: workers})
		t.add(s)
		return err
	}
	if _, err := m.measure(sample); err != nil {
		return result{}, fingerprint{}, fmt.Errorf("warm-up: %w", err)
	}
	var passes []interval
	for deadline := time.Now().Add(rc.seconds); len(passes) == 0 || time.Now().Before(deadline); {
		iv, err := m.measure(sample)
		if err != nil {
			return result{}, fingerprint{}, err
		}
		passes = append(passes, iv)
	}

	r := reporter{w: out, workload: w.name, metrics: map[string]metric{}}
	cal, raw, kern := timed(setup)
	r.put(endToEnd[0], cal, raw, kern)
	cal, raw, kern = timed(passes)
	r.put(endToEnd[1], cal, raw, kern)
	var alloc, rss []float64
	for _, iv := range passes {
		alloc = append(alloc, float64(iv.used.alloc)/1e6)
		rss = append(rss, float64(iv.peakRSS)/1e6)
	}
	r.put(endToEnd[2], alloc, nil, nil)
	r.put(endToEnd[3], rss, nil, nil)
	printTally(out, w.name, t)
	return newResult(t, r.metrics), newFingerprint(m.kernels), nil
}

// round is one untraced sample and the traced sample after it, with the
// traced sample's spans, probes, and counters.
type round struct {
	untraced, traced interval
	tr               *obsv.Tracer
	p                *prober
	reg              *obsv.Registry
}

// runTraced measures per-layer metrics: after a warm-up, it alternates
// an untraced sample at workers width (for the idle, GC, and overhead
// figures) with a serial traced sample, until rc.seconds have passed.
// The traced sample probes every layer, then runs the workload's sample
// at one worker under an obsv.Tracer. Counters the two samples must
// agree on are compared every round; a mismatch counts as a wrong
// verdict.
func runTraced(w *workload, rc runConfig, out io.Writer) (result, fingerprint, error) {
	m := newMeter()
	var t tally
	untraced := func(reg *obsv.Registry) func() error {
		return func() error {
			s, err := w.run(harness.Options{Parallelism: workers, Metrics: reg})
			t.add(s)
			return err
		}
	}
	if _, err := m.measure(untraced(nil)); err != nil {
		return result{}, fingerprint{}, fmt.Errorf("warm-up: %w", err)
	}
	var rounds []round
	for deadline := time.Now().Add(rc.seconds); len(rounds) == 0 || time.Now().Before(deadline); {
		ureg := obsv.NewRegistry()
		u, err := m.measure(untraced(ureg))
		if err != nil {
			return result{}, fingerprint{}, err
		}
		rd := round{untraced: u, tr: obsv.NewTracer(), reg: obsv.NewRegistry()}
		rd.traced, err = m.measure(func() error {
			rd.p = &prober{root: rd.tr.Start("probe")}
			err := w.probe(rd.p)
			rd.p.root.End()
			if err != nil {
				return err
			}
			s, err := w.run(harness.Options{Parallelism: 1, Tracer: rd.tr, Metrics: rd.reg})
			t.add(s)
			return err
		})
		if err != nil {
			return result{}, fingerprint{}, fmt.Errorf("traced: %w", err)
		}
		t.wrong += disagreements(out, w, ureg, rd.reg)
		rounds = append(rounds, rd)
	}

	fp := newFingerprint(m.kernels)
	vals, kernels := map[string][]float64{}, []float64(nil)
	var samples [][]obsv.SpanReport
	for _, rd := range rounds {
		lm := layerMetrics(w, rd)
		for _, d := range perLayer {
			vals[d.name] = append(vals[d.name], lm[d.name])
		}
		kernels = append(kernels, rd.traced.kernel)
		samples = append(samples, obsv.SpanTree(rd.tr))
	}
	if rc.traceFile != "" {
		if err := writeTrace(rc.traceFile, traceFile{Workload: w.name, Fingerprint: fp, Samples: samples}); err != nil {
			return result{}, fingerprint{}, err
		}
		fmt.Fprintf(out, "%-18s spans written to %s\n", w.name, rc.traceFile)
	}
	r := reporter{w: out, workload: w.name, metrics: map[string]metric{}}
	for _, d := range perLayer {
		var raws, kerns []float64
		if d.unit == "ms" || d.unit == "s" {
			for i, v := range vals[d.name] {
				raws = append(raws, v*kernels[i]/cRef)
			}
			kerns = kernels
		}
		r.put(d, vals[d.name], raws, kerns)
	}
	printTally(out, w.name, t)
	return newResult(t, r.metrics), fp, nil
}

// layerMetrics derives one round's per-layer numbers from the traced
// sample's spans, probes, and counters and the untraced sample's
// resource use.
func layerMetrics(w *workload, rd round) map[string]float64 {
	u, p := rd.untraced, rd.p
	total, longest := layerTotals(rd.tr)
	snap := rd.reg.Snapshot()
	c := snap.Counters
	solve := time.Duration(snap.Histograms["detect.solve_ns"].SumNs)
	ms := func(d time.Duration) float64 { return 1e3 * calibrate(d, rd.traced.kernel) }
	pct := func(part, whole time.Duration) float64 { return 100 * ratio(part.Seconds(), whole.Seconds()) }
	var work, parts time.Duration
	for _, n := range w.work {
		work += total[n]
	}
	for _, n := range w.parts {
		parts += total[n]
	}
	item := total["progen.item"]
	return map[string]float64{
		"minic.parse_ms":           ms(total["minic.parse"]),
		"lower.module_ms":          ms(total["lower.module"]),
		"lower.instrs":             float64(p.instrs),
		"dataflow.ranges_ms":       ms(total["dataflow.ranges"]),
		"acfg.build_ms":            ms(total["acfg.build"]),
		"acfg.nodes":               float64(p.acfgNodes),
		"alias.analyze_ms":         ms(total["alias.analyze"]),
		"alias.alloc_mb":           float64(p.aliasBytes) / 1e6,
		"taint.analyze_ms":         ms(total["taint.analyze"]),
		"presolve.facts_ms":        ms(total["presolve.facts"]),
		"aeg.build_ms":             ms(total["aeg.build"]),
		"aeg.alloc_mb":             float64(p.aegBytes) / 1e6,
		"detect.analyze_ms":        ms(total["detect.analyze"]),
		"detect.frontend_ms":       ms(total["detect.frontend"]),
		"detect.search_ms":         ms(total["detect.search"] - solve),
		"detect.candidates":        float64(c["detect.candidates"]),
		"detect.pruned":            float64(c["detect.pruned"]),
		"detect.findings":          float64(c["detect.findings"]),
		"presolve.discharged":      float64(c["presolve.discharged"]),
		"presolve.skipped_queries": float64(c["presolve.skipped_queries"]),
		"presolve.decided_ratio": ratio(float64(c["presolve.skipped_queries"]),
			float64(c["presolve.skipped_queries"]+c["detect.queries"])),
		"sat.solve_pct":            pct(solve, total["detect.analyze"]),
		"sat.queries":              float64(c["detect.queries"]),
		"sat.decisions":            float64(c["sat.decisions"]),
		"sat.propagations":         float64(c["sat.propagations"]),
		"sat.conflicts":            float64(c["sat.conflicts"]),
		"smt.model_hits":           float64(c["smt.model_hits"]),
		"smt.memo_hits":            float64(c["detect.memo_hits"]),
		"smt.tseitin_gates":        float64(c["smt.tseitin_gates"]),
		"baseline.analyze_pct":     pct(total["baseline.analyze"], total["detect.analyze"]),
		"progen.repair-pht_pct":    pct(total["progen.repair-pht"], item),
		"progen.repair-stl_pct":    pct(total["progen.repair-stl"], item),
		"progen.repair-psf_pct":    pct(total["progen.repair-psf"], item),
		"progen.repair-imp_pct":    pct(total["progen.repair-imp"], item),
		"progen.repair-ss_pct":     pct(total["progen.repair-ss"], item),
		"progen.meta_pct":          pct(total["progen.meta-alpha"]+total["progen.meta-dead"]+total["progen.meta-reorder"], item),
		"progen.presolve_pct":      pct(total["progen.presolve"], item),
		"progen.uarch_pct":         pct(total["progen.uarch"], item),
		"campstore.wal_appends":    float64(c["store.wal_appends"]),
		"campstore.fsyncs":         float64(c["store.fsyncs"]),
		"harness.critical_path_ms": ms(longest[w.work[0]]),
		"harness.idle_ratio":       1 - ratio(u.used.cpu.Seconds(), workers*u.raw.Seconds()),
		"runtime.gc_cycles":        float64(u.used.gcCycles),
		"runtime.gc_cpu_s":         u.used.gcCPU * cRef / u.kernel,
		"trace.overhead_ratio":     ratio(work.Seconds(), u.used.cpu.Seconds()),
		"trace.coverage_ratio":     ratio(parts.Seconds(), total[w.work[0]].Seconds()),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// disagreements compares the counters a traced and an untraced sample
// must agree on, printing each mismatch.
func disagreements(out io.Writer, w *workload, untraced, traced *obsv.Registry) int {
	u, t := untraced.Snapshot().Counters, traced.Snapshot().Counters
	n := 0
	for _, name := range w.agree {
		if u[name] != t[name] {
			fmt.Fprintf(out, "%-18s MISMATCH %s: untraced (workers=%d) %d, traced (serial) %d\n", w.name, name, workers, u[name], t[name])
			n++
		}
	}
	return n
}

func printTally(out io.Writer, name string, t tally) {
	fmt.Fprintf(out, "%-18s attempted=%d failed=%d fail_ratio=%.4g wrong_verdicts=%d\n",
		name, t.attempted, t.failed, ratio(float64(t.failed), float64(t.attempted)), t.wrong)
}

func newResult(t tally, m map[string]metric) result {
	return result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// traceFile is what a traced run writes: the span forest of every
// traced sample, with the machine fingerprint.
type traceFile struct {
	Workload    string              `json:"workload"`
	Fingerprint fingerprint         `json:"fingerprint"`
	Samples     [][]obsv.SpanReport `json:"samples"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
