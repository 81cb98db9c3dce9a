package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"lcm/internal/detect"
	"lcm/internal/lower"
	"lcm/internal/minic"
	"lcm/internal/obsv"
)

var update = flag.Bool("update", false, "rewrite golden report files")

// TestReportGolden pins the normalized -report JSON for both engines over
// the fixture zoo, and proves the document is independent of the worker
// count: the same bytes must come out at -j 1 and -j 8. Regenerate with
// `go test ./cmd/clou -run TestReportGolden -update` after an intentional
// schema or verdict change.
func TestReportGolden(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "zoo.c"))
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"pht", "stl", "psf", "imp", "ss"} {
		golden := filepath.Join("testdata", "report_"+engine+".golden.json")
		for _, workers := range []int{1, 8} {
			t.Run(engine+"/j"+string(rune('0'+workers)), func(t *testing.T) {
				got := runReport(t, string(src), engine, workers)
				if *update && workers == 1 {
					if err := os.WriteFile(golden, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("%v (run with -update to create)", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("report differs from %s at -j %d:\n--- got ---\n%s--- want ---\n%s",
						golden, workers, got, want)
				}
			})
		}
	}
}

// runReport replays the -report path of main: sweep, build, normalize,
// serialize.
func runReport(t *testing.T, src, engine string, workers int) []byte {
	t.Helper()
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := lower.Module(file)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	eng, err := detect.ParseEngine(engine)
	if err != nil {
		t.Fatal(err)
	}
	cfg := detect.DefaultConfig(eng)
	cfg.Timeout = 60 * time.Second
	cfg.Cache = detect.NewCache()
	tracer := obsv.NewTracer()
	cfg.Metrics = obsv.NewRegistry()

	start := time.Now()
	fns := targets(m, "")
	results, errs := analyzeAll(context.Background(), m, fns, cfg, workers, tracer)
	rep := buildReport(engine, workers, fns, results, errs, tracer, cfg.Metrics, time.Since(start))
	rep.Normalize()

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf.Bytes()
}

// TestVerboseFrontendStages checks -v's per-function frontend line, read
// from the function's span: every function of the zoo builds its frontend
// once, so each line lists the five stage spans, in build order.
func TestVerboseFrontendStages(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-engine", "pht", "-v", filepath.Join("testdata", "zoo.c")}, &out, &errb); code != exitFindings {
		t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, exitFindings, errb.String())
	}
	stages := regexp.MustCompile(`^   frontend: acfg=\S+ alias=\S+ taint=\S+ reach=\S+ flow=\S+$`)
	var fns, lines int
	for _, l := range strings.Split(out.String(), "\n") {
		switch {
		case strings.HasPrefix(l, "== ") && !strings.HasPrefix(l, "== workers="):
			fns++
		case strings.HasPrefix(l, "   frontend:"):
			lines++
			if !stages.MatchString(l) {
				t.Errorf("frontend line %q does not list the five stages", l)
			}
		}
	}
	if fns == 0 || lines != fns {
		t.Errorf("%d frontend lines for %d functions", lines, fns)
	}
}
