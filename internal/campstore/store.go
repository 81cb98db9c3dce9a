// Package campstore is the crash-safe transactional work log behind
// sharded conformance campaigns: an append-only write-ahead log with
// per-record CRC32 framing and one fsync per record, compacted into a
// snapshot+log layout (snapshot written to a temp file, fsynced,
// atomically renamed into place; the live log replayed over it on
// open), and a lease-based claim protocol that lets N OS processes
// share one campaign directory with no network and no double-reported
// verdicts.
//
// # Protocol
//
// A campaign is a directory holding three things: "lock" (an empty
// flock(2) rendezvous file), "snapshot.json" (one CRC-framed JSON
// record: campaign identity, current generation and epoch, and every
// compacted verdict), and "wal.<gen>.log" (the current generation's
// record log). Every mutating operation happens under the exclusive
// flock: the holder first catches up — re-reading any records other
// processes appended, truncating a torn tail, reloading wholesale if a
// compaction bumped the generation under it — then appends its own
// records and fsyncs. State is only ever applied by reading it back
// from disk, so memory is a pure function of the committed prefix and
// an append that dies anywhere leaves the next holder a log it already
// knows how to repair.
//
// Leases carry (worker, epoch). Claims, completions, and abandons are
// WAL records; Reclaim appends an epoch bump that voids every lease of
// an older epoch, so a SIGKILLed worker's claims expire without any
// wall-clock heuristics and a stale worker's late Complete is rejected
// (ErrStale) instead of double-reporting. Completed verdicts are never
// voided: recovery may re-run work that was claimed but not completed,
// never work that was completed.
//
// Torn tails (a crash mid-append) are healed silently — that is the
// WAL's job. A snapshot that fails its checksum, or a store bound to a
// different campaign seed, is faults.ErrCorrupt: the store refuses to
// guess.
package campstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"lcm/internal/faultinject"
	"lcm/internal/faults"
	"lcm/internal/obsv"
)

// ErrStale rejects a Complete or Abandon whose lease was voided by an
// epoch bump (the worker was presumed crashed and its claim re-issued)
// or whose index was already completed. The caller's verdict is
// discarded by design: exactly one completion per index is ever
// recorded, so resumed campaigns cannot double-report.
var ErrStale = errors.New("stale lease")

// WAL record operations.
const (
	opClaim    = "claim"
	opComplete = "complete"
	opAbandon  = "abandon"
	opReclaim  = "reclaim"
)

// walRecord is one framed WAL entry.
type walRecord struct {
	Op      string          `json:"op"`
	Index   int             `json:"index,omitempty"`
	Worker  string          `json:"worker,omitempty"`
	Epoch   uint64          `json:"epoch,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// key is the record's deterministic fault-injection identity: stable
// across runs (no wall clock, no PIDs) and epoch-qualified so a
// re-claimed item's retry draws a fresh injection decision instead of
// hitting the same planted fault forever.
func (r walRecord) key() string {
	if r.Op == opReclaim {
		return fmt.Sprintf("reclaim@e%d", r.Epoch)
	}
	return fmt.Sprintf("%s/%04d@e%d", r.Op, r.Index, r.Epoch)
}

// snapshot is the compacted store state, one CRC-framed JSON record in
// snapshot.json.
type snapshot struct {
	Seed      int64       `json:"seed"`
	N         int         `json:"n"`
	Gen       uint64      `json:"gen"`
	Epoch     uint64      `json:"epoch"`
	Completed []Completed `json:"completed,omitempty"`
}

// Completed is one persisted verdict: the campaign index and the
// caller-defined payload (progen stores one JSON-encoded program
// result).
type Completed struct {
	Index   int             `json:"index"`
	Payload json.RawMessage `json:"payload"`
}

// Lease is a claim ticket. Complete and Abandon verify all three
// fields against the live lease table; a voided lease gets ErrStale.
type Lease struct {
	Index  int
	Worker string
	Epoch  uint64
}

// Options configures Open.
type Options struct {
	// Seed and N bind the store to one campaign. A fresh directory
	// adopts them; an existing store with different values refuses to
	// open (faults.ErrCorrupt) — resuming a campaign with the wrong
	// generator parameters would silently produce a franken-report.
	Seed int64
	N    int
	// Worker identifies this handle in leases. Defaults to "w<pid>".
	Worker string
	// Attach opens the store as a subordinate worker: no reclaim of
	// stale leases, no compaction — those are coordinator decisions.
	Attach bool
	// Metrics receives the store counters (store.wal_appends,
	// store.fsyncs, store.compactions, store.reclaims). Nil is fine.
	Metrics *obsv.Registry
	// CompactBytes is the WAL size that triggers compaction at open
	// (coordinator handles only). 0 means the 4 MiB default; negative
	// disables size-triggered compaction.
	CompactBytes int64
}

const defaultCompactBytes = 4 << 20

// Store is one process's handle on a campaign directory. A Store is
// safe for concurrent use by multiple goroutines, and any number of
// Stores (in one process or many) may share a directory: cross-handle
// exclusion is the flock, and every handle re-syncs from disk under it.
type Store struct {
	dir     string
	worker  string
	seed    int64
	n       int
	attach  bool
	compact int64
	metrics *obsv.Registry

	mu       sync.Mutex
	lockF    *os.File
	wal      *os.File
	walInfo  os.FileInfo // identity of the open WAL, for generation-change detection
	walOff   int64       // committed prefix we have applied
	gen      uint64
	epoch    uint64
	complete map[int]json.RawMessage
	leases   map[int]Lease
	nextFree int // all indices below are completed; claim scans start here
}

// Open opens (creating if absent) the campaign store in dir.
func Open(dir string, o Options) (*Store, error) {
	armKillFromEnv()
	if o.N <= 0 {
		return nil, fmt.Errorf("campstore: campaign size %d must be positive", o.N)
	}
	if o.Worker == "" {
		o.Worker = fmt.Sprintf("w%d", os.Getpid())
	}
	if o.CompactBytes == 0 {
		o.CompactBytes = defaultCompactBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, faults.IOf("campstore: create %s: %v", dir, err)
	}
	lockF, err := os.OpenFile(filepath.Join(dir, "lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, faults.IOf("campstore: open lock: %v", err)
	}
	s := &Store{
		dir:     dir,
		worker:  o.Worker,
		seed:    o.Seed,
		n:       o.N,
		attach:  o.Attach,
		compact: o.CompactBytes,
		metrics: o.Metrics,
		lockF:   lockF,
	}
	err = s.locked(func() error {
		if err := s.reload(true); err != nil {
			return err
		}
		if s.attach {
			return nil
		}
		// Coordinator open: expire leases a crashed run left behind and
		// fold an oversized log into the snapshot.
		if len(s.leases) > 0 {
			if _, err := s.reclaimLocked(); err != nil {
				return err
			}
		}
		if s.compact > 0 && s.walOff > s.compact {
			return s.compactLocked()
		}
		return nil
	})
	if err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Close releases the handle's file descriptors. It never blocks on the
// flock and persists nothing: all state was durable at the end of the
// last operation.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
	if s.lockF != nil {
		s.lockF.Close()
		s.lockF = nil
	}
	return nil
}

// locked runs f holding both the in-process mutex and the cross-process
// flock, after catching up with any state other handles committed.
func (s *Store) locked(f func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lockF == nil {
		return fmt.Errorf("campstore: store is closed")
	}
	if err := syscall.Flock(int(s.lockF.Fd()), syscall.LOCK_EX); err != nil {
		return faults.IOf("campstore: flock: %v", err)
	}
	defer syscall.Flock(int(s.lockF.Fd()), syscall.LOCK_UN)
	if err := s.syncLocked(); err != nil {
		return err
	}
	return f()
}

// syncLocked brings in-memory state up to the committed on-disk state:
// a full reload if another handle compacted (the generation changed
// under us), otherwise an incremental replay of records appended since
// our last look.
func (s *Store) syncLocked() error {
	if s.wal != nil {
		fi, err := os.Stat(s.walPath(s.gen))
		if err == nil && os.SameFile(fi, s.walInfo) {
			return s.replayLocked()
		}
		// Our generation's log is gone or replaced: a compaction won the
		// race. Drop everything and reload from the new snapshot.
	}
	return s.reload(s.wal == nil)
}

func (s *Store) walPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal.%d.log", gen))
}

func (s *Store) snapPath() string { return filepath.Join(s.dir, "snapshot.json") }

// reload (re)builds the full state: snapshot, then WAL replay. With
// create set, a missing snapshot initializes a fresh campaign bound to
// the handle's (seed, n).
func (s *Store) reload(create bool) error {
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
	s.complete = make(map[int]json.RawMessage)
	s.leases = make(map[int]Lease)
	s.nextFree = 0
	s.walOff = 0

	snap, err := s.loadSnapshot(create)
	if err != nil {
		return err
	}
	s.gen = snap.Gen
	s.epoch = snap.Epoch
	for _, c := range snap.Completed {
		s.complete[c.Index] = c.Payload
	}
	wal, err := os.OpenFile(s.walPath(s.gen), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return faults.IOf("campstore: open wal gen %d: %v", s.gen, err)
	}
	fi, err := wal.Stat()
	if err != nil {
		wal.Close()
		return faults.IOf("campstore: stat wal: %v", err)
	}
	s.wal, s.walInfo = wal, fi
	s.removeStaleWALs()
	return s.replayLocked()
}

// loadSnapshot reads and validates snapshot.json. A missing snapshot
// with create set initializes generation 1 durably before returning, so
// the campaign binding exists on disk from the first moment.
func (s *Store) loadSnapshot(create bool) (snapshot, error) {
	f, err := os.Open(s.snapPath())
	if errors.Is(err, fs.ErrNotExist) {
		if !create {
			return snapshot{}, faults.Corruptf("campstore: %s vanished", s.snapPath())
		}
		snap := snapshot{Seed: s.seed, N: s.n, Gen: 1, Epoch: 0}
		if err := s.writeSnapshot(snap); err != nil {
			return snapshot{}, err
		}
		return snap, nil
	}
	if err != nil {
		return snapshot{}, faults.IOf("campstore: open snapshot: %v", err)
	}
	defer f.Close()
	payload, _, err := readFrameAt(f, 0)
	if err != nil {
		return snapshot{}, faults.Corruptf("campstore: snapshot frame: %v", err)
	}
	var snap snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return snapshot{}, faults.Corruptf("campstore: snapshot decode: %v", err)
	}
	if snap.Seed != s.seed || snap.N != s.n {
		return snapshot{}, faults.Corruptf(
			"campstore: store is bound to campaign seed=%d n=%d, not seed=%d n=%d",
			snap.Seed, snap.N, s.seed, s.n)
	}
	if snap.Gen == 0 {
		return snapshot{}, faults.Corruptf("campstore: snapshot generation 0")
	}
	return snap, nil
}

// writeSnapshot durably installs snap: temp file, fsync, atomic rename,
// directory fsync. Used both for fresh-store initialization and
// compaction; crash-safe at every boundary (the kill points mark them).
func (s *Store) writeSnapshot(snap snapshot) error {
	key := fmt.Sprintf("snapshot@g%d", snap.Gen)
	if err := faultinject.IOError(faultinject.ProbeStoreWrite, key); err != nil {
		return err
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("campstore: marshal snapshot: %v", err)
	}
	tmp := filepath.Join(s.dir, "snapshot.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return faults.IOf("campstore: create %s: %v", tmp, err)
	}
	if _, err := f.Write(appendFrame(nil, payload)); err != nil {
		f.Close()
		return faults.IOf("campstore: write snapshot: %v", err)
	}
	if err := faultinject.IOError(faultinject.ProbeStoreFsync, key); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return faults.IOf("campstore: fsync snapshot: %v", err)
	}
	if err := f.Close(); err != nil {
		return faults.IOf("campstore: close snapshot: %v", err)
	}
	killpoint(KillSnapRenamePre)
	if err := faultinject.IOError(faultinject.ProbeStoreRename, key); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.snapPath()); err != nil {
		return faults.IOf("campstore: rename snapshot: %v", err)
	}
	killpoint(KillSnapRenamePost)
	return s.syncDir()
}

// syncDir fsyncs the store directory so renames and file creations are
// durable, not just the file contents.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return faults.IOf("campstore: open dir: %v", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return faults.IOf("campstore: fsync dir: %v", err)
	}
	return nil
}

// removeStaleWALs deletes logs from other generations: the leftover of
// a compaction that died before cleanup (old gen) or after creating the
// next log but before installing its snapshot (orphaned new gen).
// Best-effort — a failure just leaves garbage for the next open.
func (s *Store) removeStaleWALs() {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	cur := fmt.Sprintf("wal.%d.log", s.gen)
	for _, e := range ents {
		var g uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal.%d.log", &g); n == 1 && e.Name() != cur {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// replayLocked applies every committed record from walOff to EOF,
// truncating a torn tail back to the last committed prefix.
func (s *Store) replayLocked() error {
	for {
		payload, size, err := readFrameAt(s.wal, s.walOff)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			// Torn tail (crash mid-append) or bit rot past the committed
			// prefix: truncate back to what parses. This is the one repair
			// the store performs silently — frames are sized so a single
			// append is a single write(2), so nothing committed follows an
			// unreadable frame.
			if terr := s.wal.Truncate(s.walOff); terr != nil {
				return faults.IOf("campstore: truncate torn wal tail: %v", terr)
			}
			return nil
		}
		var rec walRecord
		if jerr := json.Unmarshal(payload, &rec); jerr != nil {
			return faults.Corruptf("campstore: wal record at %d: %v", s.walOff, jerr)
		}
		s.apply(rec)
		s.walOff += size
	}
}

// apply folds one committed record into memory. Only replayLocked calls
// it: state transitions are always read back from disk, never assumed.
func (s *Store) apply(rec walRecord) {
	switch rec.Op {
	case opClaim:
		s.leases[rec.Index] = Lease{Index: rec.Index, Worker: rec.Worker, Epoch: rec.Epoch}
	case opComplete:
		delete(s.leases, rec.Index)
		s.complete[rec.Index] = rec.Payload
	case opAbandon:
		if l, ok := s.leases[rec.Index]; ok && l.Worker == rec.Worker && l.Epoch == rec.Epoch {
			delete(s.leases, rec.Index)
		}
	case opReclaim:
		if rec.Epoch > s.epoch {
			s.epoch = rec.Epoch
		}
		for idx, l := range s.leases {
			if l.Epoch < s.epoch {
				delete(s.leases, idx)
			}
		}
		s.nextFree = 0 // voided leases reopen earlier indices
	}
}

// appendLocked durably appends rec: one frame written with one
// write(2), then one fsync. It does NOT apply the record — the caller's
// critical section ends with a replayLocked that reads it back, so
// memory only ever reflects bytes that were read from the file, and a
// failure anywhere leaves a log the next sync repairs (torn frame) or
// absorbs (written-but-unsynced frame).
func (s *Store) appendLocked(rec walRecord) error {
	if err := faultinject.IOError(faultinject.ProbeStoreWrite, rec.key()); err != nil {
		return err
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("campstore: marshal record: %v", err)
	}
	killpoint(KillWALWritePre)
	if _, err := s.wal.WriteAt(appendFrame(nil, payload), s.walOff); err != nil {
		return faults.IOf("campstore: wal append: %v", err)
	}
	killpoint(KillWALWritePost)
	s.metrics.Counter("store.wal_appends").Add(1)
	if err := faultinject.IOError(faultinject.ProbeStoreFsync, rec.key()); err != nil {
		return err
	}
	killpoint(KillWALSyncPre)
	if err := s.wal.Sync(); err != nil {
		return faults.IOf("campstore: wal fsync: %v", err)
	}
	killpoint(KillWALSyncPost)
	s.metrics.Counter("store.fsyncs").Add(1)
	return s.replayLocked()
}

// Claim leases index idx to this handle's worker at the current epoch.
// ok is false if idx is already completed or currently leased.
func (s *Store) Claim(idx int) (l Lease, ok bool, err error) {
	if idx < 0 || idx >= s.n {
		return Lease{}, false, fmt.Errorf("campstore: index %d out of range [0,%d)", idx, s.n)
	}
	err = s.locked(func() error {
		return s.claimLocked(idx, &l, &ok)
	})
	return l, ok, err
}

func (s *Store) claimLocked(idx int, l *Lease, ok *bool) error {
	if _, done := s.complete[idx]; done {
		return nil
	}
	if _, held := s.leases[idx]; held {
		return nil
	}
	rec := walRecord{Op: opClaim, Index: idx, Worker: s.worker, Epoch: s.epoch}
	if err := s.appendLocked(rec); err != nil {
		return err
	}
	*l = Lease{Index: idx, Worker: s.worker, Epoch: rec.Epoch}
	*ok = true
	return nil
}

// ClaimNext leases the lowest unclaimed, uncompleted index. ok is false
// when nothing is claimable (everything is completed or leased out).
func (s *Store) ClaimNext() (l Lease, ok bool, err error) {
	err = s.locked(func() error {
		idx, found := s.nextClaimable()
		if !found {
			return nil
		}
		return s.claimLocked(idx, &l, &ok)
	})
	return l, ok, err
}

// nextClaimable returns the lowest index that is neither completed nor
// leased.
func (s *Store) nextClaimable() (int, bool) {
	for s.nextFree < s.n {
		if _, done := s.complete[s.nextFree]; !done {
			break
		}
		s.nextFree++
	}
	for i := s.nextFree; i < s.n; i++ {
		if _, done := s.complete[i]; done {
			continue
		}
		if _, held := s.leases[i]; held {
			continue
		}
		return i, true
	}
	return 0, false
}

// Complete durably records the verdict for the leased index. A lease
// voided by an epoch bump — or an index another worker already
// completed — gets ErrStale and records nothing: the protocol's
// no-double-report guarantee lives here.
func (s *Store) Complete(l Lease, payload []byte) error {
	return s.locked(func() error {
		if _, done := s.complete[l.Index]; done {
			return fmt.Errorf("%w: index %d already completed", ErrStale, l.Index)
		}
		cur, held := s.leases[l.Index]
		if !held || cur.Worker != l.Worker || cur.Epoch != l.Epoch {
			return fmt.Errorf("%w: lease %d/%s@e%d was reclaimed", ErrStale, l.Index, l.Worker, l.Epoch)
		}
		return s.appendLocked(walRecord{
			Op: opComplete, Index: l.Index, Worker: l.Worker, Epoch: l.Epoch,
			Payload: json.RawMessage(payload),
		})
	})
}

// Abandon releases a lease without a verdict (a worker shutting down
// cleanly mid-campaign). A stale lease is a silent no-op: the epoch
// bump already released it.
func (s *Store) Abandon(l Lease) error {
	return s.locked(func() error {
		cur, held := s.leases[l.Index]
		if !held || cur.Worker != l.Worker || cur.Epoch != l.Epoch {
			return nil
		}
		return s.appendLocked(walRecord{Op: opAbandon, Index: l.Index, Worker: l.Worker, Epoch: l.Epoch})
	})
}

// Reclaim bumps the epoch, voiding every outstanding lease so the
// indices they covered become claimable again. The coordinator calls it
// after a worker wave exits: any lease still live belonged to a crashed
// worker. Completed verdicts are untouched. Returns how many leases
// were voided.
//
// The epoch bumps even with zero live leases: injected I/O faults
// (faultinject) are sticky per deterministic record key, and the epoch
// is the only component of that key a retry can change — an explicit
// Reclaim is therefore also the coordinator's "roll fresh injection
// decisions" lever after a failed wave.
func (s *Store) Reclaim() (int, error) {
	var n int
	err := s.locked(func() error {
		var rerr error
		n, rerr = s.reclaimLocked()
		return rerr
	})
	return n, err
}

func (s *Store) reclaimLocked() (int, error) {
	stale := len(s.leases)
	if err := s.appendLocked(walRecord{Op: opReclaim, Epoch: s.epoch + 1}); err != nil {
		return 0, err
	}
	if stale > 0 {
		s.metrics.Counter("store.reclaims").Add(int64(stale))
	}
	return stale, nil
}

// Compact folds the WAL into a new snapshot: create the next
// generation's (empty) log, durably install a snapshot pointing at it,
// then delete the old log. Open replays whichever pair the crash left
// consistent. Outstanding leases are dropped (the snapshot holds only
// completed verdicts), so only the coordinator — between waves, when no
// lease should be live — compacts.
func (s *Store) Compact() error {
	return s.locked(func() error { return s.compactLocked() })
}

func (s *Store) compactLocked() error {
	killpoint(KillSnapWritePre)
	next := s.gen + 1
	nw, err := os.OpenFile(s.walPath(next), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return faults.IOf("campstore: create wal gen %d: %v", next, err)
	}
	if err := nw.Sync(); err != nil {
		nw.Close()
		return faults.IOf("campstore: fsync new wal: %v", err)
	}
	if err := s.syncDir(); err != nil {
		nw.Close()
		return err
	}
	snap := snapshot{Seed: s.seed, N: s.n, Gen: next, Epoch: s.epoch, Completed: s.completedSorted()}
	if err := s.writeSnapshot(snap); err != nil {
		nw.Close()
		// The orphaned wal.<next>.log is stale-WAL garbage; the next
		// successful open removes it.
		return err
	}
	// The snapshot is installed: the new generation is live. Swap our
	// handle and clear the old log.
	old := s.walPath(s.gen)
	s.wal.Close()
	fi, err := nw.Stat()
	if err != nil {
		nw.Close()
		return faults.IOf("campstore: stat new wal: %v", err)
	}
	s.wal, s.walInfo, s.gen, s.walOff = nw, fi, next, 0
	s.leases = make(map[int]Lease)
	s.nextFree = 0
	os.Remove(old)
	s.metrics.Counter("store.compactions").Add(1)
	return nil
}

// completedSorted returns the completed verdicts in index order — the
// snapshot's canonical (deterministic) layout.
func (s *Store) completedSorted() []Completed {
	out := make([]Completed, 0, len(s.complete))
	for idx, payload := range s.complete {
		out = append(out, Completed{Index: idx, Payload: payload})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Sync catches up with records other handles committed since the last
// operation. Accessors below read the handle's snapshot of state; call
// Sync first when cross-process freshness matters.
func (s *Store) Sync() error {
	return s.locked(func() error { return nil })
}

// Completed returns the payload recorded for idx, if any.
func (s *Store) Completed(idx int) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.complete[idx]
	return p, ok
}

// CompletedAll returns every completed verdict in index order.
func (s *Store) CompletedAll() []Completed {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.completedSorted()
}

// CompletedCount returns how many indices have verdicts.
func (s *Store) CompletedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.complete)
}

// Done reports whether every index has a verdict.
func (s *Store) Done() bool { return s.CompletedCount() == s.n }

// Leases returns how many leases are outstanding.
func (s *Store) Leases() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.leases)
}

// Gen returns the current snapshot generation.
func (s *Store) Gen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Seed returns the campaign seed the store is bound to.
func (s *Store) Seed() int64 { return s.seed }

// N returns the campaign size the store is bound to.
func (s *Store) N() int { return s.n }
