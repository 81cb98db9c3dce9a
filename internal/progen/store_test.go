package progen

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lcm/internal/campstore"
	"lcm/internal/obsv"
)

const (
	storeTestSeed = 5
	storeTestN    = 6
)

func openStoreT(t *testing.T, dir string, worker string, attach bool) *campstore.Store {
	t.Helper()
	st, err := campstore.Open(dir, campstore.Options{
		Seed: storeTestSeed, N: storeTestN, Worker: worker, Attach: attach,
	})
	if err != nil {
		t.Fatalf("open store %s: %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// renderStore assembles the completed campaign from the store and
// renders its normalized report — the canonical byte string every
// resumed, re-sharded, or crashed-and-recovered run must reproduce.
func renderStore(t *testing.T, dir string) []byte {
	t.Helper()
	st := openStoreT(t, dir, "render", false)
	reg := obsv.NewRegistry()
	tracer := obsv.NewTracer()
	root := tracer.Start("conform")
	out, err := OutcomeFromStore(st, reg)
	root.End()
	if err != nil {
		t.Fatalf("OutcomeFromStore: %v", err)
	}
	rep := out.Report(storeTestSeed, 1, reg, tracer)
	rep.Normalize()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func storeOpts() Options {
	return Options{Seed: storeTestSeed, N: storeTestN, Jobs: 1}
}

// TestStoreCrashResumeIdentity: a worker-loop campaign interrupted
// mid-claim and mid-write (a dangling lease from a dead worker plus a
// torn WAL tail) must resume to a report byte-identical to an
// uninterrupted run.
func TestStoreCrashResumeIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("store resume sweep in -short mode")
	}
	// Reference: one worker, no interruptions.
	refDir := t.TempDir()
	ref := openStoreT(t, refDir, "w0", false)
	if n, err := RunStore(context.Background(), ref, storeOpts(), 0); err != nil || n != storeTestN {
		t.Fatalf("reference RunStore = %d, %v", n, err)
	}
	want := renderStore(t, refDir)

	// Crashed campaign: worker completes two items, then dies holding a
	// lease (handle dropped without Abandon), and its final in-flight
	// append is torn mid-frame.
	dir := t.TempDir()
	w1 := openStoreT(t, dir, "w1", false)
	if n, err := RunStore(context.Background(), w1, storeOpts(), 2); err != nil || n != 2 {
		t.Fatalf("partial RunStore = %d, %v", n, err)
	}
	if _, ok, err := w1.ClaimNext(); err != nil || !ok {
		t.Fatalf("claim before crash: %v %v", ok, err)
	}
	w1.Close() // SIGKILL stand-in: the lease stays on disk
	wal := filepath.Join(dir, "wal.1.log")
	if err := appendBytes(wal, []byte{0x13, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}

	// Resume: a fresh coordinator handle reclaims the dead worker's
	// lease, heals the torn tail, and a new worker finishes the rest.
	w2 := openStoreT(t, dir, "w2", false)
	if got := w2.Leases(); got != 0 {
		t.Fatalf("coordinator open left %d stale leases", got)
	}
	if w2.CompletedCount() != 2 {
		t.Fatalf("crash lost verdicts: %d/2 survive", w2.CompletedCount())
	}
	if _, err := RunStore(context.Background(), w2, storeOpts(), 0); err != nil {
		t.Fatalf("resumed RunStore: %v", err)
	}
	got := renderStore(t, dir)
	if !bytes.Equal(got, want) {
		t.Fatalf("crash-resumed report differs from uninterrupted run:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", want, got)
	}
}

// TestStoreReshardIdentity: the same campaign spread across three
// worker handles in interleaved waves — with a compaction in the middle
// — reports byte-identically to the single-worker run.
func TestStoreReshardIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("store reshard sweep in -short mode")
	}
	refDir := t.TempDir()
	ref := openStoreT(t, refDir, "w0", false)
	if _, err := RunStore(context.Background(), ref, storeOpts(), 0); err != nil {
		t.Fatal(err)
	}
	want := renderStore(t, refDir)

	dir := t.TempDir()
	coord := openStoreT(t, dir, "coord", false)
	workers := []*campstore.Store{
		openStoreT(t, dir, "wa", true),
		openStoreT(t, dir, "wb", true),
		openStoreT(t, dir, "wc", true),
	}
	for round := 0; !coord.Done(); round++ {
		w := workers[round%len(workers)]
		if _, err := RunStore(context.Background(), w, storeOpts(), 1); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round == 2 {
			if err := coord.Compact(); err != nil {
				t.Fatalf("mid-campaign compact: %v", err)
			}
		}
		if err := coord.Sync(); err != nil {
			t.Fatal(err)
		}
		if round > 4*storeTestN {
			t.Fatalf("campaign failed to converge after %d rounds", round)
		}
	}
	got := renderStore(t, dir)
	if !bytes.Equal(got, want) {
		t.Fatal("re-sharded report differs from single-worker run")
	}
}

// TestStoreRunCtxIdentity: RunCtx with the Store backend (the
// single-process `clou -gen -store` path, including its worker pool)
// persists exactly the verdicts a worker loop would, and its in-memory
// outcome matches the store assembly.
func TestStoreRunCtxIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("store RunCtx sweep in -short mode")
	}
	refDir := t.TempDir()
	ref := openStoreT(t, refDir, "w0", false)
	if _, err := RunStore(context.Background(), ref, storeOpts(), 0); err != nil {
		t.Fatal(err)
	}
	want := renderStore(t, refDir)

	dir := t.TempDir()
	st := openStoreT(t, dir, "runctx", false)
	opts := storeOpts()
	opts.Jobs = 2
	opts.Store = st
	out, err := RunCtx(context.Background(), opts)
	if err != nil {
		t.Fatalf("RunCtx(store): %v", err)
	}
	if out.Resumed != 0 {
		t.Fatalf("fresh store-backed run resumed %d items", out.Resumed)
	}
	got := renderStore(t, dir)
	if !bytes.Equal(got, want) {
		t.Fatal("RunCtx store-backed report differs from worker-loop run")
	}

	// Re-running over the same store replays every verdict: nothing is
	// re-analyzed, nothing double-reported.
	out2, err := RunCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Resumed != storeTestN {
		t.Fatalf("re-run resumed %d items, want all %d", out2.Resumed, storeTestN)
	}
	if got2 := renderStore(t, dir); !bytes.Equal(got2, want) {
		t.Fatal("replayed report differs")
	}
}

// renderCampaign runs a campaign through RunCtx with live metrics and
// spans and renders its normalized report.
func renderCampaign(t *testing.T, opts Options) ([]byte, *Outcome) {
	t.Helper()
	metrics := obsv.NewRegistry()
	tracer := obsv.NewTracer()
	root := tracer.Start("conform")
	opts.Metrics = metrics
	opts.Span = root
	out, err := RunCtx(context.Background(), opts)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	rep := out.Report(opts.Seed, 1, metrics, tracer)
	rep.Normalize()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), out
}

// TestRunCtxStoreResumeIdentity: kill a store-backed RunCtx campaign
// partway (some verdicts committed, a lease left dangling, a torn WAL
// tail), resume it through RunCtx, and demand the resumed report —
// live conform.* counters and per-program spans included — be
// byte-identical to an uninterrupted run's.
func TestRunCtxStoreResumeIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("resume sweep in -short mode")
	}
	base := storeOpts()
	base.Jobs = 2
	base.Store = openStoreT(t, t.TempDir(), "ref", false)
	want, uninterrupted := renderCampaign(t, base)
	if uninterrupted.Resumed != 0 {
		t.Fatalf("fresh campaign resumed %d items", uninterrupted.Resumed)
	}

	dir := t.TempDir()
	w := openStoreT(t, dir, "killed", false)
	if n, err := RunStore(context.Background(), w, storeOpts(), 3); err != nil || n != 3 {
		t.Fatalf("partial RunStore = %d, %v", n, err)
	}
	if _, ok, err := w.ClaimNext(); err != nil || !ok {
		t.Fatalf("claim before kill: %v %v", ok, err)
	}
	w.Close()
	if err := appendBytes(filepath.Join(dir, "wal.1.log"), []byte{0x13, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}

	opts := base
	opts.Store = openStoreT(t, dir, "resume", false)
	got, out := renderCampaign(t, opts)
	if out.Resumed != 3 {
		t.Errorf("resumed %d items, want 3 (the committed verdicts)", out.Resumed)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", want, got)
	}
}

// TestStoreSeedMismatch: indices address programs only under the seed
// and size that generated them, so both store entry points refuse a
// handle bound to another campaign.
func TestStoreSeedMismatch(t *testing.T) {
	st := openStoreT(t, t.TempDir(), "w", false)
	for _, opts := range []Options{
		{Seed: storeTestSeed + 1, N: storeTestN, Jobs: 1},
		{Seed: storeTestSeed, N: storeTestN + 1, Jobs: 1},
	} {
		if _, err := RunStore(context.Background(), st, opts, 0); err == nil || !strings.Contains(err.Error(), "seed") {
			t.Errorf("RunStore(seed=%d n=%d) = %v, want refusal naming the seed", opts.Seed, opts.N, err)
		}
		opts.Store = st
		if _, err := RunCtx(context.Background(), opts); err == nil || !strings.Contains(err.Error(), "seed") {
			t.Errorf("RunCtx(seed=%d n=%d) = %v, want refusal naming the seed", opts.Seed, opts.N, err)
		}
	}
	if st.CompletedCount() != 0 || st.Leases() != 0 {
		t.Fatalf("refused runs touched the store: %d verdicts, %d leases", st.CompletedCount(), st.Leases())
	}
}

// TestWriteRegressionsDeduped: failures shrinking to the same (oracle,
// source) pair produce one corpus file.
func TestWriteRegressionsDeduped(t *testing.T) {
	dir := t.TempDir()
	fails := []Failure{
		{Oracle: "oracle-a", Src: "void victim(void) {}\n", Seed: 1, Index: 0},
		{Oracle: "oracle-a", Src: "void victim(void) {}\n", Seed: 1, Index: 3}, // same defect, other index
		{Oracle: "oracle-b", Src: "void victim(void) {}\n", Seed: 1, Index: 3}, // other oracle
	}
	n, err := WriteRegressionsDeduped(dir, fails)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("wrote %d files, want 2 (one duplicate skipped)", n)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("corpus holds %d files, want 2", len(ents))
	}
}

func appendBytes(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(b)
	return err
}
