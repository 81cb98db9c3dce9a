package progen

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"

	"lcm/internal/campstore"
	"lcm/internal/faults"
	"lcm/internal/obsv"
)

// itemRecord is one completed campaign item as persisted in the store:
// the program's result plus its (shrunk) oracle failures.
type itemRecord struct {
	Index    int           `json:"index"`
	Result   ProgramResult `json:"result"`
	Failures []Failure     `json:"failures,omitempty"`
}

// checkBinding refuses a store handle opened for a different campaign:
// indices address programs only under the seed and size that made them.
func checkBinding(st *campstore.Store, opts Options) error {
	if st.Seed() != opts.Seed || st.N() != opts.N {
		return fmt.Errorf("progen: store is bound to campaign seed=%d n=%d, not seed=%d n=%d",
			st.Seed(), st.N(), opts.Seed, opts.N)
	}
	return nil
}

// storedRecord decodes the verdict the store holds for index i, if any.
func storedRecord(st *campstore.Store, i int) (itemRecord, bool, error) {
	payload, ok := st.Completed(i)
	if !ok {
		return itemRecord{}, false, nil
	}
	rec, err := decodeRecord(i, payload)
	return rec, err == nil, err
}

func decodeRecord(i int, payload []byte) (itemRecord, error) {
	var rec itemRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return itemRecord{}, faults.Corruptf("progen: store verdict %d: %v", i, err)
	}
	return rec, nil
}

// completeItem records rec as the verdict for lease l.
func completeItem(st *campstore.Store, l campstore.Lease, rec itemRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		st.Abandon(l)
		return err
	}
	return st.Complete(l, payload)
}

// runItem analyzes campaign item i; with a store, under a lease: claim,
// analyze, complete. fromStore reports that the returned record is the
// verdict another worker sharing the store put on file — the index was
// leased or completed elsewhere — rather than this call's analysis.
func runItem(opts Options, i int) (rec itemRecord, fromStore bool, err error) {
	st := opts.Store
	if st == nil {
		res, fails, err := analyzeOne(opts, i)
		return itemRecord{Index: i, Result: res, Failures: fails}, false, err
	}
	l, ok, err := st.Claim(i)
	if err != nil {
		return itemRecord{}, false, err
	}
	if !ok {
		// Completed or leased by another worker; adopt its verdict once
		// visible rather than analyzing twice.
		return adoptStored(st, i, fmt.Errorf("index leased by another worker"))
	}
	res, fails, err := analyzeOne(opts, i)
	if err != nil {
		st.Abandon(l)
		return itemRecord{}, false, err
	}
	rec = itemRecord{Index: i, Result: res, Failures: fails}
	if err := completeItem(st, l, rec); err != nil {
		if errors.Is(err, campstore.ErrStale) {
			// Another worker completed the index first; its verdict is the
			// one on record, so this run's outcome must match it.
			return adoptStored(st, i, err)
		}
		return itemRecord{}, false, err
	}
	return rec, false, nil
}

// adoptStored re-syncs the store and returns the verdict on file for i,
// or cause if none is visible yet.
func adoptStored(st *campstore.Store, i int, cause error) (itemRecord, bool, error) {
	if err := st.Sync(); err != nil {
		return itemRecord{}, false, err
	}
	rec, ok, err := storedRecord(st, i)
	if err != nil {
		return itemRecord{}, false, err
	}
	if !ok {
		return itemRecord{}, false, cause
	}
	return rec, true, nil
}

// RunStore is the claim-next worker loop: pull unowned campaign items
// from the store until none are claimable, analyze each, and complete
// its lease with its itemRecord. It is the body of `clou -gen -worker` —
// any number of processes run it against one store directory with no
// coordination beyond the store itself. maxItems > 0 bounds how many
// items this call analyzes (the chaos harness uses it to force
// multi-wave campaigns).
//
// The returned count is items this worker completed. A worker observing
// ErrStale on completion simply moves on: the index was finished by a
// competing worker (or this worker's lease was reclaimed after a
// presumed crash), and exactly one verdict is on record either way.
func RunStore(ctx context.Context, st *campstore.Store, opts Options, maxItems int) (int, error) {
	if err := checkBinding(st, opts); err != nil {
		return 0, err
	}
	done := 0
	for maxItems <= 0 || done < maxItems {
		if err := ctx.Err(); err != nil {
			return done, faults.FromContext(err)
		}
		l, ok, err := st.ClaimNext()
		if err != nil {
			return done, err
		}
		if !ok {
			return done, nil
		}
		r, fails, err := analyzeOne(opts, l.Index)
		if err != nil {
			st.Abandon(l)
			return done, err
		}
		if err := completeItem(st, l, itemRecord{Index: l.Index, Result: r, Failures: fails}); err != nil {
			if errors.Is(err, campstore.ErrStale) {
				continue
			}
			return done, err
		}
		done++
	}
	return done, nil
}

// OutcomeFromStore assembles the campaign outcome from the store's
// completed verdicts in index order, replaying every result through
// recordProgram so the conform.* counters — and therefore the
// normalized report — are byte-identical no matter how many processes,
// kills, and resumes produced the verdicts. It refuses an incomplete
// campaign: assembly is the coordinator's final step, after Done.
func OutcomeFromStore(st *campstore.Store, reg *obsv.Registry) (*Outcome, error) {
	if err := st.Sync(); err != nil {
		return nil, err
	}
	if !st.Done() {
		return nil, fmt.Errorf("progen: campaign incomplete: %d/%d verdicts", st.CompletedCount(), st.N())
	}
	out := &Outcome{}
	for _, c := range st.CompletedAll() {
		rec, err := decodeRecord(c.Index, c.Payload)
		if err != nil {
			return nil, err
		}
		out.Programs = append(out.Programs, rec.Result)
		out.Failures = append(out.Failures, rec.Failures...)
		recordProgram(reg, rec.Result, len(rec.Failures))
	}
	return out, nil
}

// WriteRegressionsDeduped writes the shrunk failures to the regression
// corpus, skipping duplicates by content hash of (oracle, shrunk
// source): campaigns routinely shrink different items' failures to the
// same minimal program, and one replayable file per distinct defect is
// what the corpus wants. Returns how many files were written.
func WriteRegressionsDeduped(dir string, fails []Failure) (int, error) {
	seen := map[[sha256.Size]byte]bool{}
	written := 0
	for _, f := range fails {
		h := sha256.Sum256([]byte(f.Oracle + "\x00" + f.Src))
		if seen[h] {
			continue
		}
		seen[h] = true
		if err := WriteRegression(dir, f); err != nil {
			return written, err
		}
		written++
	}
	return written, nil
}
