// Package faults defines the structured failure taxonomy of the
// fault-tolerant analysis supervisor: every way a per-item analysis can
// fail without the process dying is classified into exactly one sentinel
// kind — four analysis kinds (deadline, budget, panic, canceled) plus two
// operational storage kinds (io, corrupt). The taxonomy is the contract
// between the layers — the worker pool (internal/harness) converts panics
// into ErrPanic items, the detector marks deadline and budget exhaustion,
// the campaign store (internal/campstore) classifies WAL and snapshot
// failures, the degradation ladder (detect.AnalyzeFuncLadder) decides per
// kind whether to retry at a lower precision rung (never for operational
// kinds — see IsOperational), and the run report and metrics surface the
// kind so no failure is ever silent.
//
// The package is a dependency leaf: sat, detect, harness, and the CLIs
// all import it, so it must import nothing from this repo.
package faults

import (
	"context"
	"errors"
	"fmt"
)

// The sentinel failure kinds. Classified errors wrap exactly one of
// them, so errors.Is works through any amount of context wrapping.
var (
	// ErrDeadline marks an analysis cut off by its wall-clock deadline
	// (context.DeadlineExceeded at the item level).
	ErrDeadline = errors.New("deadline exceeded")
	// ErrBudget marks an analysis cut off by a step budget: solver query
	// caps, conflict budgets, or node limits.
	ErrBudget = errors.New("budget exhausted")
	// ErrPanic marks a worker panic converted into a per-item error by the
	// pool's recovery handler.
	ErrPanic = errors.New("worker panic")
	// ErrCanceled marks an item abandoned because its context was
	// canceled (campaign shutdown or an injected cancellation).
	ErrCanceled = errors.New("canceled")
	// ErrIO marks a storage-layer operation (campaign-store WAL append,
	// fsync, snapshot rename) that failed at the operating system. Unlike
	// the four analysis kinds, degradation cannot help: the verdict was
	// computable, it just could not be persisted. Operational kinds are
	// retryable after the environment recovers — the campaign store's
	// lease protocol makes the retry safe.
	ErrIO = errors.New("storage i/o failure")
	// ErrCorrupt marks on-disk state that failed its integrity check
	// beyond what crash recovery is allowed to repair: a campaign-store
	// snapshot with a bad checksum, or a log bound to a different
	// campaign. Recoverable torn tails are healed silently and never
	// raise this; ErrCorrupt means the store refuses to guess.
	ErrCorrupt = errors.New("corrupt state")
)

// Kind names a classified error's sentinel: "deadline", "budget",
// "panic", "canceled", or "" for nil / unclassified errors. The names are
// stable identifiers used in metric counter names ("faults.<kind>"),
// report failure fields, and degradation-regression headers.
func Kind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrDeadline):
		return "deadline"
	case errors.Is(err, ErrBudget):
		return "budget"
	case errors.Is(err, ErrPanic):
		return "panic"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrIO):
		return "io"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	return ""
}

// IsFault reports whether err is classified under the taxonomy: the
// item's failure is accounted for, never silent. Analysis kinds are
// recoverable by degradation; operational kinds (io, corrupt) are
// recoverable by retrying the item once storage works again. Anything
// unclassified (parse errors, missing functions) is a genuine error the
// supervisor must propagate.
func IsFault(err error) bool { return Kind(err) != "" }

// IsOperational reports whether err is one of the storage-layer kinds
// (io, corrupt). The degradation ladder must NOT descend on these:
// re-running the analysis at lower precision cannot fix a disk, and the
// campaign store's lease protocol already guarantees the item is re-run
// safely after recovery.
func IsOperational(err error) bool {
	k := Kind(err)
	return k == "io" || k == "corrupt"
}

// Deadlinef, Budgetf, and Panicf build classified errors with context.
// The sentinel is wrapped, so errors.Is(err, ErrX) holds.

// Deadlinef returns a classified deadline error.
func Deadlinef(format string, args ...interface{}) error {
	return wrap(ErrDeadline, format, args...)
}

// Budgetf returns a classified budget error.
func Budgetf(format string, args ...interface{}) error {
	return wrap(ErrBudget, format, args...)
}

// Panicf returns a classified panic error.
func Panicf(format string, args ...interface{}) error {
	return wrap(ErrPanic, format, args...)
}

// IOf returns a classified storage-I/O error.
func IOf(format string, args ...interface{}) error {
	return wrap(ErrIO, format, args...)
}

// Corruptf returns a classified corruption error.
func Corruptf(format string, args ...interface{}) error {
	return wrap(ErrCorrupt, format, args...)
}

func wrap(sentinel error, format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", sentinel, fmt.Sprintf(format, args...))
}

// FromContext classifies a context error: DeadlineExceeded → ErrDeadline,
// Canceled → ErrCanceled, nil → nil.
func FromContext(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %v", ErrDeadline, err)
	default:
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	}
}
