// Package baseline implements a Binsec/Haunted-style comparator for the
// Table 2 experiments: a relational-symbolic-execution-flavored detector
// that explicitly enumerates architectural paths and, per path, transient
// continuations — the eager exploration that makes such tools scale
// super-linearly with function size (§6, §7). It reports a single
// undifferentiated leak count (BH does not classify transmitters, §6) and
// honors the paper's BH configuration (ROB/LSQ 200/20).
package baseline

import (
	"time"

	"lcm/internal/acfg"
	"lcm/internal/alias"
	"lcm/internal/dataflow"
	"lcm/internal/ir"
	"lcm/internal/taint"
)

// Config bounds the exploration.
type Config struct {
	// PHT explores control-flow mis-speculation; otherwise store bypass.
	PHT bool
	// ROB and LSQ mirror the BH paper's 200/20 configuration.
	ROB int
	LSQ int
	// MaxPaths caps architectural path enumeration (the exploration is
	// exponential by design; the cap models BH's timeout behaviour).
	MaxPaths int
	// Timeout bounds wall time.
	Timeout time.Duration
}

func (c *Config) defaults() {
	if c.ROB == 0 {
		c.ROB = 200
	}
	if c.LSQ == 0 {
		c.LSQ = 20
	}
	if c.MaxPaths == 0 {
		c.MaxPaths = 1 << 18
	}
}

// Result is the baseline's report: one flat count, no classification.
type Result struct {
	Fn       string
	Leaks    int
	Paths    int // architectural paths explored
	Duration time.Duration
	TimedOut bool
}

// AnalyzeFunc runs the baseline detector over one function.
func AnalyzeFunc(m *ir.Module, fn string, cfg Config) (*Result, error) {
	cfg.defaults()
	start := time.Now()
	g, err := acfg.Build(m, fn, acfg.Options{})
	if err != nil {
		return nil, err
	}
	al := alias.Analyze(g)
	ta := taint.Analyze(g, al)

	e := &explorer{cfg: cfg, g: g, al: al, ta: ta, start: start,
		res:   &Result{Fn: fn},
		leaks: map[int]bool{},
	}
	for _, n := range g.Nodes {
		if n.IsStore() {
			e.stores = append(e.stores, n)
		}
	}
	e.explore(g.Entry, nil)
	e.res.Paths = e.paths
	e.res.Leaks = len(e.leaks)
	e.res.Duration = time.Since(start)
	return e.res, nil
}

type explorer struct {
	cfg   Config
	g     *acfg.Graph
	al    *alias.Analysis
	ta    *taint.Analysis
	start time.Time
	res   *Result
	paths int
	leaks map[int]bool // leaky instruction nodes (deduplicated)
	// stores lists the graph's stores in node order, once, for the
	// spill-chain walk in dependsOn.
	stores []*acfg.Node
}

func (e *explorer) budget() bool {
	if e.paths >= e.cfg.MaxPaths {
		e.res.TimedOut = true
		return false
	}
	if e.cfg.Timeout > 0 && time.Since(e.start) > e.cfg.Timeout {
		e.res.TimedOut = true
		return false
	}
	return true
}

// explore walks every architectural path explicitly (the relational-SE
// exploration); path is the node sequence so far.
func (e *explorer) explore(n int, path []int) {
	if !e.budget() {
		return
	}
	path = append(path, n)
	node := e.g.Nodes[n]
	succs := e.g.Succs(n)

	if node.IsBranch() && len(succs) >= 2 {
		// At each branch: check the transient continuation down each arm
		// (per path — no memoization, like eager relational SE), then fork
		// architecturally.
		if e.cfg.PHT {
			e.checkTransient(succs[0])
			e.checkTransient(succs[1])
		}
		e.explore(succs[0], path)
		e.explore(succs[1], path)
		return
	}
	if len(succs) == 0 {
		e.paths++
		if !e.cfg.PHT {
			e.checkBypass(path)
		}
		return
	}
	for _, s := range succs {
		e.explore(s, path)
	}
}

// checkTransient scans the wrong-arm window for tainted-address accesses —
// the leak condition, without transmitter classification. The window is
// every node within ROB steps of the arm; an lfence in it does not
// truncate it, so accesses reachable only through a fence still count.
func (e *explorer) checkTransient(arm int) {
	dataflow.BitSet(e.g.BoundedRow(arm, e.cfg.ROB)).ForEach(func(n int) {
		node := e.g.Nodes[n]
		if !(node.IsLoad() || node.IsStore()) {
			return
		}
		if e.ta.AddressControlled(node) || e.secretDependentAddress(node) {
			e.leaks[n] = true
		}
	})
}

// checkBypass scans one architectural path for store→load bypass leaks.
func (e *explorer) checkBypass(path []int) {
	for i, sID := range path {
		s := e.g.Nodes[sID]
		if !s.IsStore() {
			continue
		}
		limit := i + e.cfg.LSQ
		for j := i + 1; j < len(path) && j <= limit; j++ {
			l := e.g.Nodes[path[j]]
			if !l.IsLoad() {
				continue
			}
			if !e.al.MayAliasTransient(s, l) {
				continue
			}
			// The stale load's value reaching any later access address
			// counts as one leak.
			for k := j + 1; k < len(path); k++ {
				t := e.g.Nodes[path[k]]
				if !(t.IsLoad() || t.IsStore()) {
					continue
				}
				if e.dependsOn(t, path[j]) {
					e.leaks[t.ID] = true
				}
			}
		}
	}
}

// secretDependentAddress reports whether a memory node's address depends
// on another load's value (the access→transmit shape, unclassified).
func (e *explorer) secretDependentAddress(n *acfg.Node) bool {
	var defs []int
	switch {
	case n.IsLoad():
		if len(n.ArgDefs) > 0 {
			defs = n.ArgDefs[0]
		}
	case n.IsStore():
		if len(n.ArgDefs) > 1 {
			defs = n.ArgDefs[1]
		}
	}
	return e.anyLoadIn(defs, 0)
}

func (e *explorer) anyLoadIn(defs []int, depth int) bool {
	if depth > 12 {
		return false
	}
	for _, d := range defs {
		dn := e.g.Nodes[d]
		if dn.IsLoad() {
			return true
		}
		if dn.Instr != nil {
			for _, dd := range dn.ArgDefs {
				if e.anyLoadIn(dd, depth+1) {
					return true
				}
			}
		}
	}
	return false
}

// dependsOn reports whether node t's address depends on the value of load
// src (through value chains and spills — approximated by def reachability).
func (e *explorer) dependsOn(t *acfg.Node, src int) bool {
	var defs []int
	switch {
	case t.IsLoad():
		if len(t.ArgDefs) > 0 {
			defs = t.ArgDefs[0]
		}
	case t.IsStore():
		if len(t.ArgDefs) > 1 {
			defs = t.ArgDefs[1]
		}
	}
	seen := map[int]bool{}
	stack := append([]int(nil), defs...)
	for len(stack) > 0 {
		d := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[d] {
			continue
		}
		seen[d] = true
		if d == src {
			return true
		}
		dn := e.g.Nodes[d]
		if dn.Instr == nil {
			continue
		}
		if dn.IsLoad() {
			// approximate spill chains: a load depends on stores to its
			// slot; walk the store's value operand.
			for _, st := range e.stores {
				if e.al.MayAlias(st, dn) {
					if len(st.ArgDefs) > 0 {
						stack = append(stack, st.ArgDefs[0]...)
					}
				}
			}
			continue
		}
		for _, dd := range dn.ArgDefs {
			stack = append(stack, dd...)
		}
	}
	return false
}
