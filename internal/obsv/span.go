// Package obsv is the stdlib-only observability layer for the analysis
// pipeline: hierarchical wall-clock spans (Tracer, Span), a typed metrics
// registry (Registry: counters, gauges, duration histograms), and the
// stable JSON run-report schema (Report) that clou -report and lcmlint
// -report share. The repository benchmark (bench/) reads its per-layer
// metrics from the same spans and registry.
//
// Everything is nil-safe by design: a nil *Tracer, *Span, *Registry,
// *Counter, *Gauge, or *Histogram accepts every method as a no-op, so
// instrumented code calls Start/Add/Observe unconditionally and a
// disabled pipeline pays neither an allocation nor a clock read.
package obsv

import (
	"sync"
	"time"
)

// Tracer collects a forest of root spans for one run. The zero value of
// *Tracer (nil) is the disabled tracer: Start returns nil and every
// downstream span operation is free.
type Tracer struct {
	mu    sync.Mutex
	roots []*Span
}

// NewTracer returns an enabled tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Start opens a root span. On a nil tracer it returns nil without
// touching the clock.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{name: name, begin: time.Now()}
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// Roots returns the root spans in start order.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// Span is one timed region. Children may be started concurrently from
// multiple goroutines; each child's End must be called by the goroutine
// that started it (the usual defer pairing).
type Span struct {
	name  string
	begin time.Time

	mu       sync.Mutex
	wall     time.Duration
	children []*Span
	ended    bool
}

// Start opens a child span. Nil-safe: a nil receiver returns nil.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, begin: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span, fixing its wall duration. Ending twice keeps the
// first duration. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.wall = now.Sub(s.begin)
	}
	s.mu.Unlock()
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Wall returns the span's wall-clock duration: the fixed duration once
// ended, the running elapsed time before that. Nil-safe (zero).
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.wall
	}
	return time.Since(s.begin)
}

// Self returns the span's own duration: wall minus the wall time of its
// children — the "CPU-ish" share attributable to the span itself rather
// than to a named sub-stage. Concurrent children can make Self negative;
// it is clamped to zero.
func (s *Span) Self() time.Duration {
	if s == nil {
		return 0
	}
	d := s.Wall()
	for _, c := range s.Children() {
		d -= c.Wall()
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Children returns the child spans in start order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}
