package detect

import (
	"sync"
	"sync/atomic"
	"time"

	"lcm/internal/acfg"
	"lcm/internal/alias"
	"lcm/internal/dataflow"
	"lcm/internal/ir"
	"lcm/internal/presolve"
	"lcm/internal/taint"
)

// frontend bundles the engine-independent per-function artifacts: the
// A-CFG (with its transitive closure), alias and taint analyses, and the
// value-flow graph. All of them are immutable after construction, so one
// frontend may back every engine's detector of the same function — and
// many concurrent detectors — at once. The mutable S-AEG (its solver
// accumulates learnt clauses and lazily encoded windows) is deliberately
// excluded: each detector builds its own.
type frontend struct {
	g        *acfg.Graph
	al       *alias.Analysis
	ta       *taint.Analysis
	cfgReach func(from, to int) bool
	flow     *flowGraph

	// Construction sub-stage wall times, attributed to the building run's
	// report (cache hits see zeros — they paid nothing).
	acfgTime  time.Duration
	aliasTime time.Duration
	taintTime time.Duration
	reachTime time.Duration
	flowTime  time.Duration

	// psOnce/ps hold the pre-solver's engine-independent fact base (the
	// must-alias partition and range facts). Like the rest of the
	// frontend it is immutable once built and shared between every
	// engine's runs.
	psOnce sync.Once
	ps     *presolve.Facts
}

// presolveFacts returns (building on first use) the function's shared
// pre-solver facts. mr is the module's range analyses — in any one run
// configuration the pruner, and therefore mr, is stable per module, so
// memoizing with the first caller's value is safe.
func (fe *frontend) presolveFacts(mr *dataflow.ModuleRanges) *presolve.Facts {
	fe.psOnce.Do(func() {
		fe.ps = presolve.NewFacts(fe.g, fe.al, mr)
	})
	return fe.ps
}

// buildFrontend computes the artifacts from scratch, timing each stage.
func buildFrontend(m *ir.Module, fn string) (*frontend, error) {
	mark := time.Now()
	lap := func() time.Duration {
		now := time.Now()
		d := now.Sub(mark)
		mark = now
		return d
	}
	g, err := acfg.Build(m, fn, acfg.Options{})
	if err != nil {
		return nil, err
	}
	fe := &frontend{g: g, acfgTime: lap()}
	fe.al = alias.Analyze(g)
	fe.aliasTime = lap()
	fe.ta = taint.Analyze(g, fe.al)
	fe.taintTime = lap()
	fe.cfgReach = g.Reach()
	fe.reachTime = lap()
	if fe.flow, err = buildFlowGraph(g, fe.al); err != nil {
		return nil, err
	}
	fe.flowTime = lap()
	return fe, nil
}

// Cache memoizes per-function frontends and per-module range pruners so
// repeated analyses — the second engine over the same function, a
// benchmark iteration, a parallel sweep — skip re-parsing the world.
//
// Safe for concurrent use. Keys include the module pointer, so a Cache
// must only be consulted while the module is not being mutated: callers
// that insert fences (repair) run uncached.
type Cache struct {
	mu      sync.Mutex
	funcs   map[funcKey]*funcEntry
	pruners map[*ir.Module]*prunerEntry
	hits    atomic.Int64
	misses  atomic.Int64
}

type funcKey struct {
	m  *ir.Module
	fn string
}

type funcEntry struct {
	once sync.Once
	fe   *frontend
	err  error
}

type prunerEntry struct {
	once sync.Once
	p    *dataflow.Pruner
}

// NewCache returns an empty analysis cache.
func NewCache() *Cache {
	return &Cache{
		funcs:   map[funcKey]*funcEntry{},
		pruners: map[*ir.Module]*prunerEntry{},
	}
}

// Stats returns the frontend hit/miss counters.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// frontend returns the cached artifacts for (m, fn), computing them
// exactly once per key even under concurrent callers. The hit flag
// reports whether this call found the entry already present.
func (c *Cache) frontend(m *ir.Module, fn string) (*frontend, bool, error) {
	key := funcKey{m: m, fn: fn}
	c.mu.Lock()
	e, ok := c.funcs[key]
	if !ok {
		e = &funcEntry{}
		c.funcs[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() { e.fe, e.err = buildFrontend(m, fn) })
	return e.fe, ok, e.err
}

// pruner returns the module's shared range-analysis pruner. dataflow's
// ModuleRanges fills its per-function memo lazily under its own lock, so
// one Pruner serves every worker analyzing functions of m.
func (c *Cache) pruner(m *ir.Module) *dataflow.Pruner {
	c.mu.Lock()
	e, ok := c.pruners[m]
	if !ok {
		e = &prunerEntry{}
		c.pruners[m] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.p = dataflow.NewPruner(m) })
	return e.p
}
