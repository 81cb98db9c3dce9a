package detect

import (
	"sync"
	"sync/atomic"

	"lcm/internal/acfg"
	"lcm/internal/alias"
	"lcm/internal/dataflow"
	"lcm/internal/ir"
	"lcm/internal/obsv"
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
}

// buildFrontend computes the artifacts from scratch, timing each stage in
// a child span of sp ("acfg", "alias", "taint", "reach", "flow"). A nil
// sp records nothing and reads no clock.
func buildFrontend(m *ir.Module, fn string, sp *obsv.Span) (*frontend, error) {
	st := sp.Start("acfg")
	g, err := acfg.Build(m, fn, acfg.Options{})
	st.End()
	if err != nil {
		return nil, err
	}
	fe := &frontend{g: g}
	st = sp.Start("alias")
	fe.al = alias.Analyze(g)
	st.End()
	st = sp.Start("taint")
	fe.ta = taint.Analyze(g, fe.al)
	st.End()
	st = sp.Start("reach")
	fe.cfgReach = g.Reach()
	st.End()
	st = sp.Start("flow")
	fe.flow, err = buildFlowGraph(g, fe.al)
	st.End()
	if err != nil {
		return nil, err
	}
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
// reports whether this call found the entry already present. Only the
// call that builds the entry records stage spans under sp.
func (c *Cache) frontend(m *ir.Module, fn string, sp *obsv.Span) (*frontend, bool, error) {
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
	e.once.Do(func() { e.fe, e.err = buildFrontend(m, fn, sp) })
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
