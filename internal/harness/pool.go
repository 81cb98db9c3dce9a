package harness

import (
	"context"
	"fmt"
	"runtime/debug"
	"strconv"
	"sync"

	"lcm/internal/faultinject"
	"lcm/internal/faults"
	"lcm/internal/obsv"
)

// ForEach runs job(0), …, job(n-1) over at most workers goroutines. It is
// the bounded worker pool behind every parallel sweep in this repo (the
// paper ran Clou "in parallel on many cores, one process per analyzed
// function", §6.2); cmd/clou and cmd/lcmlint reuse it for their -j flags.
// It is the only level of parallelism: one analysis runs on one goroutine.
//
// Determinism contract: jobs receive their index, so callers write
// results into index-addressed slots and reassemble them in input order —
// scheduling never changes the output. Errors are collected per index and
// the lowest-index error is returned, so the error surfaced is the same
// one a serial run would have hit first.
//
// Fault tolerance: a job that panics does not kill the process — the
// panic is recovered and converted into that item's error, classified
// faults.ErrPanic, with the stack attached. Other items keep running.
func ForEach(workers, n int, job func(i int) error) error {
	for _, err := range ForEachCtx(context.Background(), workers, n, job) {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForEachCtx is ForEach under a context, returning per-item errors
// (nil entries are successes) instead of only the first one. When ctx is
// canceled mid-run the pool stops dispatching: items never handed to a
// worker get a faults.ErrCanceled entry, items already in flight run to
// completion and keep their real result, and every worker goroutine is
// joined before the call returns — early cancellation leaks nothing.
func ForEachCtx(ctx context.Context, workers, n int, job func(i int) error) []error {
	errs := make([]error, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				errs[i] = faults.FromContext(ctx.Err())
				continue
			}
			errs[i] = runJob(i, job)
		}
		return errs
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = runJob(i, job)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			cerr := faults.FromContext(ctx.Err())
			for j := i; j < n; j++ {
				errs[j] = cerr
			}
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return errs
}

// runJob executes one item with panic recovery and the worker-dispatch
// fault-injection probe. A recovered panic becomes a classified
// faults.ErrPanic item error; injected panics stay distinguishable via
// faultinject.ErrInjected so chaos accounting reconciles exactly.
func runJob(i int, job func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, injected := r.(faultinject.PanicValue); injected {
				err = fmt.Errorf("%w: %w: job %d: %v", faults.ErrPanic, faultinject.ErrInjected, i, r)
				return
			}
			err = fmt.Errorf("%w: job %d: %v\n%s", faults.ErrPanic, i, r, debug.Stack())
		}
	}()
	if ierr := faultinject.Error(faultinject.ProbeWorkerDispatch, strconv.Itoa(i)); ierr != nil {
		return ierr
	}
	return job(i)
}

// ForEachSpan is ForEach under an observability span: the pool's wall
// time is recorded as one child span of parent named name, and every job
// receives that span to parent its own per-function spans under. With a
// nil parent (tracing disabled) it degenerates to ForEach at no cost.
func ForEachSpan(parent *obsv.Span, name string, workers, n int, job func(i int, sp *obsv.Span) error) error {
	sp := parent.Start(name)
	defer sp.End()
	return ForEach(workers, n, func(i int) error { return job(i, sp) })
}

// ForEachSpanCtx is ForEachCtx under an observability span, with per-item
// errors. Campaign drivers (conform, chaos) use it so one canceled or
// panicking item degrades that item's verdict instead of the whole run.
func ForEachSpanCtx(ctx context.Context, parent *obsv.Span, name string, workers, n int, job func(i int, sp *obsv.Span) error) []error {
	sp := parent.Start(name)
	defer sp.End()
	return ForEachCtx(ctx, workers, n, func(i int) error { return job(i, sp) })
}
