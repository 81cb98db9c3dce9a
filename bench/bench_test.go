package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"lcm/internal/cryptolib"
	"lcm/internal/obsv"
)

// spec is the part of BENCHMARK.json the benchmark's code must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames)
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(s.EndToEnd), len(endToEnd))
	}
	for i, m := range s.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
}

// unit is one metric name and unit from BENCHMARK.json.
type unit struct{ name, unit string }

// TestSmoke runs every workload at reduced size, one sample untraced and
// one traced, and checks the verdicts, the metric set, and the spans.
func TestSmoke(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	libs := []cryptolib.Library{cryptolib.TEA(), cryptolib.OpenSSL()}
	small := []*workload{
		cryptoWorkload("crypto", libs, false, exp),
		cryptoWorkload("crypto-nopresolve", libs, true, exp),
		litmusWorkload([]string{"pht", "stl", "fwd", "new", "psf", "imp", "ss"}, 1),
		conformWorkload(pinnedCampaign, 1, t.TempDir(), exp),
	}
	s := readSpec(t)
	var endToEndUnits, perLayerUnits []unit
	for _, m := range s.EndToEnd {
		endToEndUnits = append(endToEndUnits, unit{m.Name, m.Unit})
	}
	for _, m := range s.PerLayer {
		perLayerUnits = append(perLayerUnits, unit{m.Name, m.Unit})
	}
	for _, w := range small {
		for _, traced := range []bool{false, true} {
			rc := runConfig{setupBatches: 1, setupReps: 2}
			run, want := runUntraced, endToEndUnits
			if traced {
				rc.traceFile = filepath.Join(t.TempDir(), "trace.json")
				run, want = runTraced, perLayerUnits
			}
			res, _, err := run(w, rc, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, u := range want {
				if m, ok := res.Metrics[u.name]; !ok || m.Unit != u.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, u.name, m, u.unit)
				}
			}
			if traced {
				checkSpans(t, w.name, rc.traceFile)
			}
		}
	}
}

// checkSpans requires every traced sample to have spans, every self time
// to be non-negative, and the self times of each root's subtree to add
// up to the root's wall time: a serial sample's spans never overlap.
func checkSpans(t *testing.T, name, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Samples) == 0 {
		t.Fatalf("%s: no traced samples", name)
	}
	var selfSum func(s obsv.SpanReport) int64
	selfSum = func(s obsv.SpanReport) int64 {
		if s.SelfNs < 0 {
			t.Errorf("%s: span %s has self time %dns", name, s.Name, s.SelfNs)
		}
		sum := s.SelfNs
		for _, c := range s.Children {
			sum += selfSum(c)
		}
		return sum
	}
	for i, roots := range tf.Samples {
		if len(roots) == 0 {
			t.Errorf("%s: sample %d has no spans", name, i)
		}
		for _, r := range roots {
			if sum := selfSum(r); sum != r.WallNs {
				t.Errorf("%s: sample %d root %s: self times add up to %dns, wall %dns", name, i, r.Name, sum, r.WallNs)
			}
		}
	}
}

func TestLayerTotals(t *testing.T) {
	tr := obsv.NewTracer()
	root := tr.Start("library-tea")
	fn := root.Start("fn:encrypt")
	for _, stage := range []string{"frontend", "encode", "search"} {
		sp := fn.Start(stage)
		time.Sleep(time.Millisecond)
		sp.End()
	}
	fn.End()
	root.End()
	total, longest := layerTotals(tr)
	if total["detect.analyze"] != fn.Wall() || longest["detect.analyze"] != fn.Wall() {
		t.Errorf("detect.analyze total %v longest %v, want %v", total["detect.analyze"], longest["detect.analyze"], fn.Wall())
	}
	parts := total["detect.frontend"] + total["detect.encode"] + total["detect.search"]
	if parts+fn.Self() != fn.Wall() {
		t.Errorf("stages %v + self %v, want the analysis's %v", parts, fn.Self(), fn.Wall())
	}
}

func TestCalibrate(t *testing.T) {
	if got, want := calibrate(2*time.Second, 0.06), 2*cRef/0.06; math.Abs(got-want) > 1e-12 {
		t.Errorf("calibrate = %v, want %v", got, want)
	}
	m := &meter{kernels: []float64{0.04}}
	iv, err := m.measure(func() error { time.Sleep(10 * time.Millisecond); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if want := (0.04 + m.kernels[1]) / 2; len(m.kernels) != 2 || iv.kernel != want {
		t.Errorf("interval kernel = %v with kernels %v, want the mean of both, %v", iv.kernel, m.kernels, want)
	}
	cal, raw, kern := timed([]interval{{raw: time.Second, kernel: 0.05}})
	if want := cRef / 0.05; math.Abs(cal[0]-want) > 1e-12 || raw[0] != 1 || kern[0] != 0.05 {
		t.Errorf("timed = %v %v %v, want %v 1 0.05", cal, raw, kern, want)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(xs, n=4) on the same inputs.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs            []float64
		med, p25, p75 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{7, 1, 3}, 3, 1, 7},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{4}, 4, 4, 4},
	} {
		med, p25, p75 := quartiles(tc.xs)
		if med != tc.med || p25 != tc.p25 || p75 != tc.p75 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, med, p25, p75, tc.med, tc.p25, tc.p75)
		}
	}
}

func TestResultJSONOrdered(t *testing.T) {
	res := newResult(tally{attempted: 3}, map[string]metric{
		"pass_s": {1.5, "s"}, "alloc_mb": {2, "MB"}, "setup_s": {0.1, "s"},
	})
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var keys []string
	depth := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch v := tok.(type) {
		case json.Delim:
			if v == '{' {
				depth++
			} else if v == '}' {
				depth--
			}
		case string: // at depths 1 and 2 every string is a key
			if depth <= 2 {
				keys = append(keys, v)
			}
		}
	}
	want := []string{"correct", "attempted", "failed", "metrics", "alloc_mb", "pass_s", "setup_s"}
	if !slices.Equal(keys, want) {
		t.Errorf("keys %v, want %v", keys, want)
	}
	again, _ := json.Marshal(res)
	if !bytes.Equal(data, again) {
		t.Error("result JSON differs between encodings")
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{name: "pass_s", better: "lower", bound: 0.10}
	runs := func(v float64, jitter float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = v * (1 + jitter*float64(i%3-1))
		}
		return out
	}
	for _, tc := range []struct {
		base, cur []float64
		want      string
	}{
		{runs(1, 0.01), runs(0.8, 0.01), "better"},
		{runs(1, 0.01), runs(1.2, 0.01), "worse"},
		{runs(1, 0.01), runs(1.05, 0.01), "unchanged"},
		{runs(1, 0.2), runs(1.05, 0.2), "unresolved"},
		{runs(1, 0.01)[:3], runs(0.8, 0.01)[:3], "unchanged"}, // too few pairs to claim a gain
	} {
		if got := verdict(tc.base, tc.cur, d); got != tc.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", tc.base, tc.cur, got, tc.want)
		}
	}
}
