// Conformance smoke mode: `clou -gen N -seed S` generates N seeded
// mini-C programs (internal/progen), runs every applicable oracle family
// on each — repair soundness, metamorphic invariance, architectural
// equivalence, differential enumeration — and prints a per-program
// verdict summary. It exits non-zero if any oracle fails, and shares the
// detection CLI's -j / -report / -timeout plumbing.
//
// Every campaign runs on a crash-safe transactional store
// (internal/campstore): every verdict is WAL-committed as it lands. With
// -store DIR the store outlives the run, so a killed run resumes from it
// with no flag beyond -store itself, and -workers N shards the campaign
// across N OS worker processes that coordinate purely through the store
// — no network. Without -store the campaign uses a throwaway store in a
// temporary directory. Resumed, re-sharded, and single-process runs emit
// byte-identical normalized reports.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"

	"lcm/internal/campstore"
	"lcm/internal/faults"
	"lcm/internal/obsv"
	"lcm/internal/progen"
)

type genOptions struct {
	n          int
	seed       int64
	jobs       int
	budget     time.Duration
	report     string
	store      string // campaign store directory ("" = a temporary one)
	workers    int    // OS worker processes to shard across (0 = run in-process)
	workerMode bool   // this process is a spawned worker: claim/complete until dry
}

// genExit converts a campaign error into the exit-code contract:
// operational storage failures (io, corrupt) are the partial arm — the
// campaign state survives and a retry can finish it — while anything
// unclassified is a usage/input error.
func genExit(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "clou:", err)
	if faults.IsOperational(err) {
		return exitPartial
	}
	return exitUsage
}

// runGen drives one conformance sweep and returns the exit code.
func runGen(o genOptions, stdout, stderr io.Writer) int {
	if o.store == "" {
		if o.workerMode || o.workers > 0 {
			fmt.Fprintln(stderr, "clou: -worker and -workers require -store")
			return exitUsage
		}
		dir, err := os.MkdirTemp("", "clou-gen-")
		if err != nil {
			return genExit(stderr, faults.IOf("create campaign store: %v", err))
		}
		defer os.RemoveAll(dir)
		o.store = dir
	}
	if o.workerMode {
		return runGenWorker(o, stdout, stderr)
	}
	return runGenStore(o, stdout, stderr)
}

// runGenWorker is the body of a spawned `-worker` process: attach to the
// store, claim and analyze items until none are claimable, exit. The
// verdicts live in the store; the coordinator owns reporting, so a
// worker's own exit code only distinguishes "drained cleanly" from
// operational or environmental death.
func runGenWorker(o genOptions, stdout, stderr io.Writer) int {
	st, err := campstore.Open(o.store, campstore.Options{
		Seed: o.seed, N: o.n, Worker: fmt.Sprintf("w%d", os.Getpid()), Attach: true,
	})
	if err != nil {
		return genExit(stderr, err)
	}
	defer st.Close()
	done, err := progen.RunStore(context.Background(), st, progen.Options{Seed: o.seed, N: o.n}, 0)
	if err != nil {
		return genExit(stderr, err)
	}
	fmt.Fprintf(stdout, "== worker: completed %d item(s)\n", done)
	return exitClean
}

// runGenStore is the campaign coordinator: open (or resume) the store
// and run the campaign — in-process via the pool when -workers is 0,
// otherwise sharded across OS worker processes in waves with a lease
// reclaim between waves, assembling the final report from the store in
// index order.
func runGenStore(o genOptions, stdout, stderr io.Writer) int {
	start := time.Now()
	// The report registry sees only the store counters (which Normalize
	// strips) and the conform.* verdict counters, which are sums and so
	// do not depend on the order verdicts land in; the span tree is the
	// bare root. That is what makes resumed, re-sharded, and in-process
	// reports byte-identical.
	metrics := obsv.NewRegistry()
	st, err := campstore.Open(o.store, campstore.Options{
		Seed: o.seed, N: o.n, Worker: "coordinator", Metrics: metrics,
	})
	if err != nil {
		return genExit(stderr, err)
	}
	defer st.Close()

	// Verdicts already in the store, from a previous (possibly killed)
	// run, are resumed, not re-analyzed.
	resumed := st.CompletedCount()
	tracer := obsv.NewTracer()
	root := tracer.Start("gen")
	var out *progen.Outcome
	if o.workers > 0 {
		if code := runWorkerWaves(o, st, stdout, stderr); code != exitClean {
			return code
		}
		out, err = progen.OutcomeFromStore(st, metrics)
	} else {
		// The in-process outcome also covers items this run left out of
		// the store: budget-skipped and fault-unknown ones.
		out, err = progen.RunCtx(context.Background(), progen.Options{
			Seed: o.seed, N: o.n, Jobs: o.jobs, Budget: o.budget,
			Store: st, Metrics: metrics,
		})
	}
	root.End()
	if err != nil {
		return genExit(stderr, err)
	}
	out.Wall = time.Since(start)
	out.Resumed = resumed
	return genSummarize(o, out, metrics, tracer, stdout, stderr)
}

// workerCommand builds the command for one spawned campaign worker: the
// same binary, re-invoked in -worker mode against the same store. It is
// a variable so the test harness (and the chaos kill campaign) can
// re-exec the test binary into a worker entry point instead.
var workerCommand = func(o genOptions) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, faults.IOf("locate worker executable: %v", err)
	}
	return exec.Command(exe,
		"-gen", strconv.Itoa(o.n),
		"-seed", strconv.FormatInt(o.seed, 10),
		"-store", o.store,
		"-worker"), nil
}

// runWorkerWaves shards the campaign across o.workers OS processes.
// Workers speak to the coordinator only through the store; a worker that
// dies (crash, SIGKILL, OOM) simply leaves leases behind, which the
// between-waves Reclaim expires so the next wave re-runs exactly the
// unfinished items. The loop stalls out — rather than spinning forever —
// if successive waves stop making progress.
func runWorkerWaves(o genOptions, st *campstore.Store, stdout, stderr io.Writer) int {
	stalled := 0
	for wave := 1; ; wave++ {
		if err := st.Sync(); err != nil {
			return genExit(stderr, err)
		}
		before := st.CompletedCount()
		if before >= o.n {
			return exitClean
		}
		procs := make([]*exec.Cmd, 0, o.workers)
		for w := 0; w < o.workers; w++ {
			cmd, err := workerCommand(o)
			if err != nil {
				return genExit(stderr, err)
			}
			cmd.Stdout = io.Discard
			cmd.Stderr = stderr
			if err := cmd.Start(); err != nil {
				return genExit(stderr, faults.IOf("spawn worker: %v", err))
			}
			procs = append(procs, cmd)
		}
		crashed := 0
		for _, cmd := range procs {
			if err := cmd.Wait(); err != nil {
				crashed++
			}
		}
		if err := st.Sync(); err != nil {
			return genExit(stderr, err)
		}
		reclaimed, err := st.Reclaim()
		if err != nil {
			return genExit(stderr, err)
		}
		after := st.CompletedCount()
		fmt.Fprintf(stdout, "== wave %d: %d/%d verdicts (+%d), %d worker(s) died, %d lease(s) reclaimed\n",
			wave, after, o.n, after-before, crashed, reclaimed)
		if after <= before {
			stalled++
			if stalled >= 3 {
				return genExit(stderr, faults.IOf("campaign stalled: %d/%d verdicts after %d waves", after, o.n, wave))
			}
		} else {
			stalled = 0
		}
	}
}

// genSummarize prints the per-verdict summary, writes the report, and
// maps the outcome to the exit-code contract.
func genSummarize(o genOptions, out *progen.Outcome, metrics *obsv.Registry, tracer *obsv.Tracer, stdout, stderr io.Writer) int {
	byVerdict := map[string]int{}
	degraded := 0
	for _, r := range out.Programs {
		byVerdict[r.Verdict]++
		if r.Rung != "" {
			degraded++
		}
		if r.Verdict == "fail" || r.Verdict == "error" {
			fmt.Fprintf(stdout, "== g%04d: %s\n   %s\n", r.Index, r.Verdict, r.Err)
		}
	}
	fmt.Fprintf(stdout, "== conform: seed=%d programs=%d leak=%d clean=%d fail=%d error=%d unknown=%d skipped=%d resumed=%d in %v\n",
		o.seed, len(out.Programs), byVerdict["leak"], byVerdict["clean"],
		byVerdict["fail"], byVerdict["error"], byVerdict["unknown"], byVerdict["skipped"],
		out.Resumed, out.Wall.Round(time.Millisecond))
	for _, f := range out.Failures {
		fmt.Fprintf(stdout, "   oracle %s seed=%d index=%d: %s\n", f.Oracle, f.Seed, f.Index, firstLine(f.Detail))
	}

	if o.report != "" {
		rep := out.Report(o.seed, o.jobs, metrics, tracer)
		if err := rep.WriteFile(o.report); err != nil {
			fmt.Fprintln(stderr, "clou: report:", err)
			return exitUsage
		}
	}
	switch {
	case len(out.Failures) > 0:
		return exitFindings
	case byVerdict["unknown"]+byVerdict["skipped"]+degraded > 0:
		return exitPartial
	}
	return exitClean
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
