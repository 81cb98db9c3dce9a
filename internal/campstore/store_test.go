package campstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lcm/internal/faultinject"
	"lcm/internal/faults"
	"lcm/internal/obsv"
)

func openT(t *testing.T, dir string, o Options) *Store {
	t.Helper()
	s, err := Open(dir, o)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func payloadFor(i int) []byte { return []byte(fmt.Sprintf(`{"v":%d}`, i)) }

// finish drives the campaign to completion: claim-next until dry,
// completing each index with its canonical payload.
func finish(t *testing.T, s *Store) {
	t.Helper()
	for {
		l, ok, err := s.ClaimNext()
		if err != nil {
			t.Fatalf("ClaimNext: %v", err)
		}
		if !ok {
			break
		}
		if err := s.Complete(l, payloadFor(l.Index)); err != nil {
			t.Fatalf("Complete(%d): %v", l.Index, err)
		}
	}
	if !s.Done() {
		t.Fatalf("campaign not done: %d/%d (leases=%d)", s.CompletedCount(), s.N(), s.Leases())
	}
}

func TestStoreClaimCompleteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := obsv.NewRegistry()
	s := openT(t, dir, Options{Seed: 7, N: 5, Worker: "a", Metrics: reg})
	finish(t, s)

	all := s.CompletedAll()
	if len(all) != 5 {
		t.Fatalf("completed %d, want 5", len(all))
	}
	for i, c := range all {
		if c.Index != i {
			t.Fatalf("CompletedAll not index-ordered: pos %d holds index %d", i, c.Index)
		}
		if string(c.Payload) != string(payloadFor(i)) {
			t.Fatalf("index %d payload %s", i, c.Payload)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["store.wal_appends"] != 10 { // 5 claims + 5 completes
		t.Fatalf("wal_appends = %d, want 10", snap.Counters["store.wal_appends"])
	}
	if got := snap.Counters["store.fsyncs"]; got != 10 {
		t.Fatalf("fsyncs = %d, want 10", got)
	}

	// A fresh handle on the same dir replays to the same state.
	s2 := openT(t, dir, Options{Seed: 7, N: 5, Worker: "b"})
	if !s2.Done() || s2.CompletedCount() != 5 {
		t.Fatalf("reopened store: %d/5 done", s2.CompletedCount())
	}
}

func TestStoreClaimSemantics(t *testing.T) {
	s := openT(t, t.TempDir(), Options{Seed: 1, N: 4, Worker: "a"})

	l0, ok, err := s.Claim(0)
	if err != nil || !ok {
		t.Fatalf("Claim(0) = %v, %v", ok, err)
	}
	if _, ok, _ := s.Claim(0); ok {
		t.Fatal("double Claim(0) succeeded")
	}
	if err := s.Complete(l0, payloadFor(0)); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if _, ok, _ := s.Claim(0); ok {
		t.Fatal("Claim of completed index succeeded")
	}
	if err := s.Complete(l0, payloadFor(0)); !errors.Is(err, ErrStale) {
		t.Fatalf("re-Complete = %v, want ErrStale", err)
	}
	if _, _, err := s.Claim(99); err == nil {
		t.Fatal("Claim(99) out of range succeeded")
	}

	var ls []Lease
	for want := 1; want <= 3; want++ {
		l, ok, err := s.ClaimNext()
		if err != nil || !ok || l.Index != want {
			t.Fatalf("ClaimNext = %+v, %v, %v, want index %d", l, ok, err, want)
		}
		ls = append(ls, l)
	}
	if _, ok, err := s.ClaimNext(); err != nil || ok {
		t.Fatalf("ClaimNext with every index leased or done = %v, %v, want nothing claimable", ok, err)
	}
	if err := s.Abandon(ls[2]); err != nil {
		t.Fatalf("Abandon: %v", err)
	}
	l3, ok, err := s.ClaimNext()
	if err != nil || !ok || l3.Index != 3 {
		t.Fatalf("ClaimNext after abandon = %+v, %v, %v, want index 3", l3, ok, err)
	}
}

func TestStoreLeaseEpochProtocol(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir, Options{Seed: 1, N: 2, Worker: "a"})
	b := openT(t, dir, Options{Seed: 1, N: 2, Worker: "b", Attach: true})

	la, ok, err := a.Claim(0)
	if err != nil || !ok {
		t.Fatalf("a.Claim(0): %v %v", ok, err)
	}
	// b cannot steal the live lease.
	if _, ok, _ := b.Claim(0); ok {
		t.Fatal("b claimed a leased index")
	}
	// Coordinator declares worker a dead.
	if n, err := a.Reclaim(); err != nil || n != 1 {
		t.Fatalf("Reclaim = %d, %v, want 1 voided", n, err)
	}
	lb, ok, err := b.Claim(0)
	if err != nil || !ok {
		t.Fatalf("b.Claim(0) after reclaim: %v %v", ok, err)
	}
	if lb.Epoch <= la.Epoch {
		t.Fatalf("reclaimed lease epoch %d not above voided epoch %d", lb.Epoch, la.Epoch)
	}
	// The presumed-dead worker's late completion must not double-report.
	if err := a.Complete(la, payloadFor(0)); !errors.Is(err, ErrStale) {
		t.Fatalf("stale Complete = %v, want ErrStale", err)
	}
	if err := a.Abandon(la); err != nil {
		t.Fatalf("stale Abandon should no-op, got %v", err)
	}
	if err := b.Complete(lb, payloadFor(0)); err != nil {
		t.Fatalf("b.Complete: %v", err)
	}
	if got, ok := b.Completed(0); !ok || string(got) != string(payloadFor(0)) {
		t.Fatalf("Completed(0) = %s, %v", got, ok)
	}
}

// buildReferenceLog drives a realistic mixed workload (claims,
// completes, an abandon, a reclaim, a re-claim) and returns the store
// dir plus the completed-set expected after each committed record
// prefix: expected[k] is the completed indices after the first k
// records.
func buildReferenceLog(t *testing.T) (dir string, expected []map[int]bool) {
	t.Helper()
	dir = t.TempDir()
	s := openT(t, dir, Options{Seed: 42, N: 10, Worker: "ref"})
	var leases []Lease
	claim := func(i int) {
		t.Helper()
		l, ok, err := s.Claim(i)
		if err != nil || !ok {
			t.Fatalf("claim %d: %v %v", i, ok, err)
		}
		for len(leases) <= i {
			leases = append(leases, Lease{})
		}
		leases[i] = l
	}
	for i := 0; i < 6; i++ {
		claim(i)
	}
	for i := 0; i < 4; i++ {
		if err := s.Complete(leases[i], payloadFor(i)); err != nil {
			t.Fatalf("complete %d: %v", i, err)
		}
	}
	if err := s.Abandon(leases[4]); err != nil {
		t.Fatalf("abandon: %v", err)
	}
	if _, err := s.Reclaim(); err != nil { // voids lease 5
		t.Fatalf("reclaim: %v", err)
	}
	claim(5)
	if err := s.Complete(leases[5], payloadFor(5)); err != nil {
		t.Fatalf("complete 5: %v", err)
	}
	s.Close()

	// Recompute the expected completed set per record prefix by decoding
	// the log the store actually wrote.
	wal, err := os.Open(filepath.Join(dir, "wal.1.log"))
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	defer wal.Close()
	done := map[int]bool{}
	expected = []map[int]bool{copySet(done)}
	var off int64
	for {
		payload, size, err := readFrameAt(wal, off)
		if err != nil {
			break
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatalf("decode record at %d: %v", off, err)
		}
		if rec.Op == opComplete {
			done[rec.Index] = true
		}
		off += size
		expected = append(expected, copySet(done))
	}
	return dir, expected
}

func copySet(m map[int]bool) map[int]bool {
	c := make(map[int]bool, len(m))
	for k := range m {
		c[k] = true
	}
	return c
}

// frameBoundaries returns the byte offset of every frame start plus the
// final EOF offset.
func frameBoundaries(t *testing.T, path string) []int64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	bounds := []int64{0}
	var off int64
	for {
		_, size, err := readFrameAt(f, off)
		if err != nil {
			break
		}
		off += size
		bounds = append(bounds, off)
	}
	return bounds
}

func copyStoreDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatalf("write %s: %v", e.Name(), err)
		}
	}
	return dst
}

// checkRecovered opens a damaged copy and asserts (a) open succeeds,
// (b) the recovered completed set is exactly the expected committed
// prefix — nothing lost, nothing invented — and (c) the store is fully
// usable: the campaign drives to completion with the canonical final
// verdict set.
func checkRecovered(t *testing.T, dir string, want map[int]bool) {
	t.Helper()
	s, err := Open(dir, Options{Seed: 42, N: 10, Worker: "recover"})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s.Close()
	got := s.CompletedAll()
	if len(got) != len(want) {
		t.Fatalf("recovered %d verdicts, want %d (prefix)", len(got), len(want))
	}
	for _, c := range got {
		if !want[c.Index] {
			t.Fatalf("recovered verdict for index %d not in committed prefix", c.Index)
		}
		if string(c.Payload) != string(payloadFor(c.Index)) {
			t.Fatalf("recovered payload for %d: %s", c.Index, c.Payload)
		}
	}
	finish(t, s)
	for i := 0; i < 10; i++ {
		p, ok := s.Completed(i)
		if !ok || string(p) != string(payloadFor(i)) {
			t.Fatalf("final verdict %d = %s, %v", i, p, ok)
		}
	}
}

// TestStoreTornWriteSweep is the exhaustive boundary sweep the issue
// demands: for every record boundary of a real log, both truncation
// (torn tail at several cut points inside the record) and single-byte
// corruption (in the length field, the CRC field, and the payload) must
// recover to the last committed prefix on open — no panic, no error,
// no silent verdict loss.
func TestStoreTornWriteSweep(t *testing.T) {
	ref, expected := buildReferenceLog(t)
	walName := "wal.1.log"
	bounds := frameBoundaries(t, filepath.Join(ref, walName))
	if len(bounds) != len(expected) {
		t.Fatalf("%d boundaries vs %d prefixes", len(bounds), len(expected))
	}
	nrec := len(bounds) - 1
	if nrec < 12 {
		t.Fatalf("reference log has only %d records; sweep needs a real workload", nrec)
	}

	refWal, err := os.ReadFile(filepath.Join(ref, walName))
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < len(bounds); i++ {
		off := bounds[i]
		// Truncation cuts: clean boundary, then several tears inside
		// record i (header split, payload split, one byte short).
		cuts := []int64{off}
		if i < nrec {
			next := bounds[i+1]
			for _, c := range []int64{off + 1, off + frameHeader, next - 1} {
				if c > off && c < next {
					cuts = append(cuts, c)
				}
			}
		}
		for _, cut := range cuts {
			t.Run(fmt.Sprintf("truncate/rec%02d/cut%d", i, cut-off), func(t *testing.T) {
				dir := copyStoreDir(t, ref)
				if err := os.Truncate(filepath.Join(dir, walName), cut); err != nil {
					t.Fatal(err)
				}
				checkRecovered(t, dir, expected[i])
			})
		}
		// Single-byte corruption inside record i: length field, CRC
		// field, first payload byte. Recovery must stop at record i.
		if i < nrec {
			size := bounds[i+1] - off
			flips := []int64{off, off + 4}
			if size > frameHeader {
				flips = append(flips, off+frameHeader)
			}
			for _, pos := range flips {
				t.Run(fmt.Sprintf("flip/rec%02d/byte%d", i, pos-off), func(t *testing.T) {
					dir := copyStoreDir(t, ref)
					damaged := append([]byte(nil), refWal...)
					damaged[pos] ^= 0x40
					if err := os.WriteFile(filepath.Join(dir, walName), damaged, 0o644); err != nil {
						t.Fatal(err)
					}
					checkRecovered(t, dir, expected[i])
				})
			}
		}
	}
}

// TestStoreTornFlipKeepsLength covers the nastier corruption class: a
// flipped bit in the length field that still yields a plausible length.
// The CRC is over the payload the (wrong) length delimits, so it fails
// and recovery stops at the same prefix.
func TestStoreTornFlipKeepsLength(t *testing.T) {
	ref, expected := buildReferenceLog(t)
	walName := "wal.1.log"
	bounds := frameBoundaries(t, filepath.Join(ref, walName))
	refWal, err := os.ReadFile(filepath.Join(ref, walName))
	if err != nil {
		t.Fatal(err)
	}
	// Flip the low bit of the length at a mid-log boundary: length
	// changes by 1, still sane.
	i := len(bounds) / 2
	off := bounds[i]
	damaged := append([]byte(nil), refWal...)
	damaged[off] ^= 0x01
	if got := binary.LittleEndian.Uint32(damaged[off : off+4]); got > maxFrame {
		t.Fatalf("flip produced insane length %d; test premise broken", got)
	}
	dir := copyStoreDir(t, ref)
	if err := os.WriteFile(filepath.Join(dir, walName), damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, dir, expected[i])
}

func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := obsv.NewRegistry()
	s := openT(t, dir, Options{Seed: 3, N: 6, Worker: "a", Metrics: reg})
	for i := 0; i < 3; i++ {
		l, ok, err := s.Claim(i)
		if err != nil || !ok {
			t.Fatalf("claim %d: %v %v", i, ok, err)
		}
		if err := s.Complete(l, payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if s.Gen() != 2 {
		t.Fatalf("gen = %d, want 2", s.Gen())
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.1.log")); !os.IsNotExist(err) {
		t.Fatalf("old wal survived compaction: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "wal.2.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("new wal: %v, size %d", err, fi.Size())
	}
	if got := reg.Snapshot().Counters["store.compactions"]; got != 1 {
		t.Fatalf("compactions = %d", got)
	}
	// The compacted store continues and reopens correctly.
	finish(t, s)
	s2 := openT(t, dir, Options{Seed: 3, N: 6, Worker: "b"})
	if s2.CompletedCount() != 6 {
		t.Fatalf("reopen after compaction: %d/6", s2.CompletedCount())
	}

	// Orphaned logs from other generations are swept at open.
	if err := os.WriteFile(filepath.Join(dir, "wal.99.log"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := openT(t, dir, Options{Seed: 3, N: 6, Worker: "c"})
	s3.Sync()
	if _, err := os.Stat(filepath.Join(dir, "wal.99.log")); !os.IsNotExist(err) {
		t.Fatalf("orphan wal not swept: %v", err)
	}
}

func TestStoreCampaignBinding(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Seed: 5, N: 4, Worker: "a"})
	s.Close()
	if _, err := Open(dir, Options{Seed: 6, N: 4}); !errors.Is(err, faults.ErrCorrupt) {
		t.Fatalf("seed mismatch open = %v, want ErrCorrupt", err)
	}
	if _, err := Open(dir, Options{Seed: 5, N: 8}); !errors.Is(err, faults.ErrCorrupt) {
		t.Fatalf("size mismatch open = %v, want ErrCorrupt", err)
	}
	if _, err := Open(dir, Options{Seed: 5, N: 4}); err != nil {
		t.Fatalf("matching reopen: %v", err)
	}
}

func TestStoreSnapshotCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Seed: 5, N: 4, Worker: "a"})
	finish(t, s)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	snap := filepath.Join(dir, "snapshot.json")
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{Seed: 5, N: 4})
	if !errors.Is(err, faults.ErrCorrupt) {
		t.Fatalf("corrupt snapshot open = %v, want ErrCorrupt", err)
	}
	if faults.Kind(err) != "corrupt" {
		t.Fatalf("Kind = %q", faults.Kind(err))
	}
}

// TestStoreMultiHandle exercises cross-handle coordination in one
// process: the flock plus sync-under-lock protocol is identical for
// threads and processes, so two Store handles on one dir behave like
// two workers.
func TestStoreMultiHandle(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir, Options{Seed: 9, N: 4, Worker: "a"})
	b := openT(t, dir, Options{Seed: 9, N: 4, Worker: "b", Attach: true})

	la, ok, err := a.ClaimNext()
	if err != nil || !ok || la.Index != 0 {
		t.Fatalf("a.ClaimNext = %+v %v %v", la, ok, err)
	}
	lb, ok, err := b.ClaimNext()
	if err != nil || !ok || lb.Index != 1 {
		t.Fatalf("b.ClaimNext = %+v %v %v (must skip a's lease)", lb, ok, err)
	}
	if err := a.Complete(la, payloadFor(0)); err != nil {
		t.Fatal(err)
	}
	if err := b.Complete(lb, payloadFor(1)); err != nil {
		t.Fatal(err)
	}
	// a compacts; b's next operation detects the generation change,
	// reloads, and keeps working.
	if err := a.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	lb2, ok, err := b.ClaimNext()
	if err != nil || !ok || lb2.Index != 2 {
		t.Fatalf("b.ClaimNext after compaction = %+v %v %v", lb2, ok, err)
	}
	if err := b.Complete(lb2, payloadFor(2)); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if a.CompletedCount() != 3 {
		t.Fatalf("a sees %d verdicts, want 3", a.CompletedCount())
	}
}

func TestStoreInjectedIOFaults(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{Seed: 13, N: 4, Worker: "a"})

	// rate=1: every store probe decision fires as a classified ErrIO.
	faultinject.Arm(faultinject.NewPlan(99, 1))
	defer faultinject.Disarm()
	_, _, err := s.Claim(0)
	if !errors.Is(err, faults.ErrIO) || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("claim under full injection = %v, want injected ErrIO", err)
	}
	if faults.Kind(err) != "io" || !faults.IsOperational(err) {
		t.Fatalf("Kind=%q IsOperational=%v", faults.Kind(err), faults.IsOperational(err))
	}
	// Nothing was applied or persisted.
	if s.Leases() != 0 {
		t.Fatalf("failed claim left a lease")
	}
	faultinject.Disarm()
	if _, ok, err := s.Claim(0); err != nil || !ok {
		t.Fatalf("claim after disarm: %v %v", ok, err)
	}
	// Re-arm: the plan is out of the way for other tests via the defer,
	// but Disarm twice must stay legal.
	faultinject.Arm(faultinject.NewPlan(99, 1))
}

func TestStoreKillEnvParse(t *testing.T) {
	pts := KillPoints()
	if len(pts) != 7 {
		t.Fatalf("KillPoints = %d, want 7", len(pts))
	}
	seen := map[string]bool{}
	for _, p := range pts {
		if seen[p] {
			t.Fatalf("duplicate kill point %q", p)
		}
		seen[p] = true
	}
}
