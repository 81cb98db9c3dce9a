// Command bench is the repository benchmark. It measures the Clou
// pipeline end to end on four workloads — crypto, crypto-nopresolve,
// litmus, and conform — and, in a separate serial traced run, layer by
// layer, with every time calibrated against a fixed CPU kernel. It checks
// every verdict against the expected answers. README.md explains the
// workloads, the metrics, and the calibration.
//
// One run of one workload (the last output line is the JSON result):
//
//	bench -workload crypto -seed 1 -seconds 26 -trace 0
//
// Every workload, each in its own child process, one at a time:
//
//	bench [-runs N] [-trace 1] [-o runs.json]
//
// Comparing two sets of runs, exit status 1 on a regression:
//
//	bench -compare base.json new.json
//
// Regenerating the expected answers:
//
//	bench -update bench/testdata/expected.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// buildDir holds everything a run writes, relative to the working
// directory: campaign stores and trace files.
const buildDir = ".bench_build"

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+"; empty runs each in its own child process")
		seed     = flag.Int64("seed", 1, "orders the corpus work of crypto and litmus; runs of every workload use seed, seed+1, ...")
		seconds  = flag.Int("seconds", 26, "seconds of samples per run, after set-up and one warm-up sample")
		trace    = flag.Int("trace", 0, "1 runs the serial traced run and reports per-layer metrics instead")
		campaign = flag.Int64("campaign-seed", pinnedCampaign, "conform's progen campaign seed (verdicts are pinned only for the default)")
		runs     = flag.Int("runs", 1, "runs per workload when running every workload")
		outPath  = flag.String("o", "", "when running every workload, write all results to this file (input of -compare)")
		compare  = flag.Bool("compare", false, "compare two files written by -o: -compare base.json new.json")
		updateTo = flag.String("update", "", "regenerate the expected answers into this file and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(workers)

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare wants two files: base.json new.json")
			break
		}
		var regressed bool
		regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && regressed {
			os.Exit(1)
		}
	case *updateTo != "":
		err = update(*updateTo)
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	case *workload == "":
		err = runAll(*seed, *seconds, *trace, *campaign, *runs, *outPath)
	default:
		err = runOne(*workload, *seed, *seconds, *trace == 1, *campaign)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result as the
// last line.
func runOne(name string, seed int64, seconds int, traced bool, campaignSeed int64) error {
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	workDir := filepath.Join(buildDir, "run", strconv.Itoa(os.Getpid()))
	w, err := newWorkload(name, options{seed: seed, campaignSeed: campaignSeed, workDir: workDir, exp: exp})
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	rc := runConfig{seconds: time.Duration(seconds) * time.Second, setupBatches: 5, setupReps: 10}
	run := runUntraced
	if traced {
		rc.traceFile = filepath.Join(buildDir, "trace-"+name+".json")
		run = runTraced
	}
	res, fp, err := run(w, rc, os.Stdout)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return printResult(os.Stdout, fp, res)
}

// printResult prints the fingerprint line and then the result line.
func printResult(w io.Writer, fp fingerprint, res result) error {
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "fingerprint %s\n%s\n", fpJSON, resJSON)
	return err
}

// runsFile is what -o writes and -compare reads: every run's result by
// workload, in run order.
type runsFile struct {
	Fingerprint fingerprint         `json:"fingerprint"`
	Trace       int                 `json:"trace"`
	Runs        map[string][]result `json:"runs"`
}

// runAll runs every workload runs times, each run in a child process of
// its own, one at a time, echoing the children's output.
func runAll(seed int64, seconds, trace int, campaignSeed int64, runs int, outPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rf := runsFile{Trace: trace, Runs: map[string][]result{}}
	for r := 0; r < runs; r++ {
		for _, name := range workloadNames {
			var buf bytes.Buffer
			cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed+int64(r), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace),
				"-campaign-seed", strconv.FormatInt(campaignSeed, 10))
			cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s run %d: %w", name, r, err)
			}
			fp, res, err := parseRun(buf.Bytes())
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, r, err)
			}
			rf.Fingerprint = fp
			rf.Runs[name] = append(rf.Runs[name], res)
		}
	}
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}

// parseRun reads the fingerprint and result lines of one run's output.
func parseRun(out []byte) (fingerprint, result, error) {
	var (
		fp   fingerprint
		res  result
		last string
	)
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "fingerprint "); ok {
			if err := json.Unmarshal([]byte(rest), &fp); err != nil {
				return fp, res, fmt.Errorf("fingerprint line: %w", err)
			}
		}
		if line != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return fp, res, fmt.Errorf("result line: %w", err)
	}
	return fp, res, nil
}
