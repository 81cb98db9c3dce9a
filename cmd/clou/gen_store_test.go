package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"lcm/internal/obsv"
)

// TestMain doubles as the re-exec entry point for spawned campaign
// workers: the -workers tests override workerCommand to launch this
// same test binary with CLOU_WORKER_HELPER set, which turns the process
// into a plain `clou` invocation before any test flags are parsed.
func TestMain(m *testing.M) {
	if os.Getenv("CLOU_WORKER_HELPER") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// withTestWorkers reroutes worker spawning through the test binary for
// the duration of one test.
func withTestWorkers(t *testing.T) {
	t.Helper()
	orig := workerCommand
	workerCommand = func(o genOptions) (*exec.Cmd, error) {
		cmd := exec.Command(os.Args[0],
			"-gen", strconv.Itoa(o.n),
			"-seed", strconv.FormatInt(o.seed, 10),
			"-store", o.store,
			"-worker")
		cmd.Env = append(os.Environ(), "CLOU_WORKER_HELPER=1")
		return cmd, nil
	}
	t.Cleanup(func() { workerCommand = orig })
}

// TestGenStoreExitCodes extends the exit-code contract to the campaign
// store: classified operational faults (io, corrupt) take the partial
// arm — the state on disk survives and a retry can finish — while flag
// misuse stays a usage error.
func TestGenStoreExitCodes(t *testing.T) {
	t.Run("2_worker_without_store", func(t *testing.T) {
		for _, args := range [][]string{
			{"-gen", "2", "-worker"},
			{"-gen", "2", "-workers", "2"},
		} {
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != exitUsage {
				t.Errorf("run(%q) exit = %d, want %d", args, code, exitUsage)
			}
		}
	})
	t.Run("3_io_store_path_is_file", func(t *testing.T) {
		// The store directory path is an existing regular file: MkdirAll
		// fails with a classified io fault, not a panic or usage error.
		path := filepath.Join(t.TempDir(), "not-a-dir")
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		if code := run([]string{"-gen", "2", "-store", path}, &out, &errb); code != exitPartial {
			t.Fatalf("exit = %d, want %d\nstderr:\n%s", code, exitPartial, errb.String())
		}
	})
	t.Run("3_budget_skips", func(t *testing.T) {
		// A budget cut leaves items out of the store; the in-process
		// outcome still accounts for them as skipped (the partial arm)
		// instead of failing store assembly on an incomplete campaign.
		dir := t.TempDir()
		var out, errb bytes.Buffer
		if code := run([]string{"-gen", "2", "-gen-budget", "1ns", "-store", dir}, &out, &errb); code != exitPartial {
			t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, exitPartial, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), "skipped=2") {
			t.Errorf("budget-cut run does not report its skipped items:\n%s", out.String())
		}
	})
	t.Run("3_corrupt_snapshot", func(t *testing.T) {
		if testing.Short() {
			t.Skip("campaign run in -short mode")
		}
		dir := t.TempDir()
		var out, errb bytes.Buffer
		if code := run([]string{"-gen", "2", "-seed", "5", "-store", dir}, &out, &errb); code != exitClean {
			t.Fatalf("seed campaign exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
				code, exitClean, out.String(), errb.String())
		}
		snap := filepath.Join(dir, "snapshot.json")
		data, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(snap, data, 0o644); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		errb.Reset()
		if code := run([]string{"-gen", "2", "-seed", "5", "-store", dir}, &out, &errb); code != exitPartial {
			t.Fatalf("corrupted-store exit = %d, want %d\nstderr:\n%s", code, exitPartial, errb.String())
		}
		if !strings.Contains(errb.String(), "snapshot") {
			t.Errorf("corruption error does not name the snapshot:\n%s", errb.String())
		}
	})
}

// normalizedReport reads a -report file back and renders its normalized
// form — the representation the identity guarantees are stated over.
func normalizedReport(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep obsv.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("parse report %s: %v", path, err)
	}
	rep.Normalize()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestGenStoreWorkersIdentity is the CLI-level identity guarantee: the
// same campaign run sharded across worker processes, in one process,
// replayed from an already-finished store, and run on a throwaway store
// (no -store) emits byte-identical normalized reports and the same exit
// code. The throwaway store leaves nothing behind in the temp dir.
func TestGenStoreWorkersIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process campaign in -short mode")
	}
	withTestWorkers(t)
	campaign := []string{"-gen", "4", "-seed", "5"}

	shardDir, repDir := t.TempDir(), t.TempDir()
	shardRep := filepath.Join(repDir, "sharded.json")
	var out, errb bytes.Buffer
	args := append(append([]string{}, campaign...),
		"-store", shardDir, "-workers", "2", "-report", shardRep)
	if code := run(args, &out, &errb); code != exitClean {
		t.Fatalf("sharded exit = %d, want %d\nstdout:\n%s\nstderr:\n%s",
			code, exitClean, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "== wave 1:") {
		t.Errorf("sharded run printed no wave summary:\n%s", out.String())
	}

	soloDir := t.TempDir()
	soloRep := filepath.Join(repDir, "solo.json")
	out.Reset()
	errb.Reset()
	args = append(append([]string{}, campaign...), "-store", soloDir, "-report", soloRep)
	if code := run(args, &out, &errb); code != exitClean {
		t.Fatalf("single-process exit = %d, want %d\nstderr:\n%s", code, exitClean, errb.String())
	}

	// Re-running over the finished sharded store replays every verdict.
	replayRep := filepath.Join(repDir, "replay.json")
	out.Reset()
	errb.Reset()
	args = append(append([]string{}, campaign...), "-store", shardDir, "-report", replayRep)
	if code := run(args, &out, &errb); code != exitClean {
		t.Fatalf("replay exit = %d, want %d\nstderr:\n%s", code, exitClean, errb.String())
	}
	if !strings.Contains(out.String(), "resumed=4") {
		t.Errorf("replay run re-analyzed instead of resuming:\n%s", out.String())
	}

	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	ephemeralRep := filepath.Join(repDir, "ephemeral.json")
	out.Reset()
	errb.Reset()
	args = append(append([]string{}, campaign...), "-report", ephemeralRep)
	if code := run(args, &out, &errb); code != exitClean {
		t.Fatalf("throwaway-store exit = %d, want %d\nstderr:\n%s", code, exitClean, errb.String())
	}
	if ents, err := os.ReadDir(tmp); err != nil || len(ents) != 0 {
		t.Errorf("throwaway store left %d entries in the temp dir (%v)", len(ents), err)
	}

	sharded := normalizedReport(t, shardRep)
	solo := normalizedReport(t, soloRep)
	replay := normalizedReport(t, replayRep)
	ephemeral := normalizedReport(t, ephemeralRep)
	if sharded != solo {
		t.Errorf("sharded report differs from single-process report:\n--- sharded ---\n%s--- solo ---\n%s", sharded, solo)
	}
	if replay != sharded {
		t.Errorf("replayed report differs from original sharded report")
	}
	if ephemeral != sharded {
		t.Errorf("throwaway-store report differs from sharded report")
	}
}
