package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles prints one row per workload × metric of two -o files —
// both medians and spreads, the change, and a verdict — and reports
// whether any end-to-end metric regressed.
func compareFiles(w io.Writer, basePath, newPath string) (regressed bool, err error) {
	base, err := readRuns(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readRuns(newPath)
	if err != nil {
		return false, err
	}
	defs := endToEnd
	if base.Trace == 1 {
		defs = perLayer
	}
	fmt.Fprintf(w, "%-18s %-26s %12s %8s %12s %8s %9s  %s\n",
		"workload", "metric", "base", "iqr", "new", "iqr", "change", "verdict")
	for _, name := range workloadNames {
		b, c := base.Runs[name], cur.Runs[name]
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		for _, d := range defs {
			bv, cv := values(b, d.name), values(c, d.name)
			bm, b25, b75 := quartiles(bv)
			cm, c25, c75 := quartiles(cv)
			v := "-"
			if d.bound > 0 {
				v = verdict(bv, cv, d)
				regressed = regressed || v == "worse"
			}
			fmt.Fprintf(w, "%-18s %-26s %12.6g %7.2f%% %12.6g %7.2f%% %8.2f%%  %s\n",
				name, d.name, bm, 100*ratio(b75-b25, bm), cm, 100*ratio(c75-c25, cm), 100*ratio(cm-bm, bm), v)
		}
	}
	return regressed, nil
}

func readRuns(path string) (runsFile, error) {
	var rf runsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

func values(runs []result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict judges one metric's runs on the parent (base) against the
// change (cur). A gain ("better") needs at least ten pairs of runs, the
// change winning nine tenths of them (ties count for neither), and a
// median gap wider than the parent's interquartile range. When every
// run of the change reads better than every run of the parent, it is no
// regression. Otherwise a spread wider than the bound on either side
// leaves the metric "unresolved", and a median worse by more than the
// bound is "worse".
func verdict(base, cur []float64, d metricDef) string {
	better := func(a, b float64) bool {
		if d.better == "higher" {
			return a > b
		}
		return a < b
	}
	bm, b25, b75 := quartiles(base)
	cm, c25, c75 := quartiles(cur)
	pairs, wins := min(len(base), len(cur)), 0
	for i := 0; i < pairs; i++ {
		if better(cur[i], base[i]) {
			wins++
		}
	}
	if pairs >= 10 && 10*wins >= 9*pairs && better(cm, bm) && math.Abs(cm-bm) > b75-b25 {
		return "better"
	}
	allBetter := true
	for _, c := range cur {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	if allBetter {
		return "unchanged"
	}
	if ratio(b75-b25, bm) > d.bound || ratio(c75-c25, cm) > d.bound {
		return "unresolved"
	}
	worse := ratio(cm-bm, bm)
	if d.better == "higher" {
		worse = -worse
	}
	if worse > d.bound {
		return "worse"
	}
	return "unchanged"
}
