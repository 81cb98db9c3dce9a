// Package presolve is the proof-carrying static pre-solver: it classifies
// S-AEG detect candidates as Refuted (with a machine-checkable certificate)
// or Unknown before any SAT query is issued. Beside the A-CFG's paths,
// which the witness rules replay, its rules read two kinds of static fact
// over the existing per-function frontend:
//
//   - speculative-window arm eligibility: per branch and take value, the
//     window nodes that can be transiently fetched down the arm that take
//     value mispredicts, read from the S-AEG's windows (WindowSource);
//   - interval facts from internal/dataflow proving address separation,
//     shared with the trusted pruner, whose range decisions return the
//     extents they rest on: the range certificates package those facts.
//
// A must-alias / must-not-alias partition refining internal/alias's
// flow-insensitive points-to sets (partition.go) is built only on demand
// by Explain, for -why descriptions; no decision reads it.
//
// The window rule is the only rule that entails UNSAT of an actual solver
// query, so it is the one -audit-presolve replays through the full SAT
// path; the range certificates record the pruner's own facts (the pruner
// already suppressed the SAT work) and are checked by arithmetic.
// Everything here is pure static computation over immutable inputs —
// results are independent of worker count, keeping reports byte-identical
// across -j levels.
package presolve

import (
	"fmt"
	"reflect"
	"slices"
	"sync"

	"lcm/internal/acfg"
	"lcm/internal/alias"
	"lcm/internal/dataflow"
)

// WindowSource answers per-branch speculation-window membership queries.
// *aeg.AEG implements it; the indirection keeps this package free of the
// encoder (and of an import cycle through detect).
type WindowSource interface {
	// WindowInfo reports whether node n is inside branch b's speculation
	// window: arms[i] says n is fetchable down successor i, dist is n's
	// minimum fetch distance from b.
	WindowInfo(b, n int) (arms [2]bool, dist int, ok bool)
	// ForEachWindowNode visits every node of branch b's window with its
	// arm fetchability, in ascending node order.
	ForEachWindowNode(b int, f func(n int, arms [2]bool))
}

// Facts bundles one function's engine-independent static facts: its
// graph, alias analysis and module range analyses, and the must-alias
// partition Explain builds from them on first use. Building Facts costs
// nothing; the partition is safe to build concurrently.
type Facts struct {
	G  *acfg.Graph
	Al *alias.Analysis
	MR *dataflow.ModuleRanges // nil when range facts are unavailable

	partOnce sync.Once
	part     *Partition
}

// NewFacts bundles one function's fact base.
func NewFacts(g *acfg.Graph, al *alias.Analysis, mr *dataflow.ModuleRanges) *Facts {
	return &Facts{G: g, Al: al, MR: mr}
}

// Partition returns (building on first use) the must-alias partition.
func (f *Facts) Partition() *Partition {
	f.partOnce.Do(func() { f.part = buildPartition(f.G, f.Al, f.MR) })
	return f.part
}

// Query is the static shadow of one candidate SAT query. A window query
// (Branch >= 0) asks the solver for a model with misspec(Branch) plus
// TransUnder(Branch, n) for each n in Trans and ExecUnder(Branch, n) for
// each n in Exec. A branch-free query (Branch < 0) asks for one where every
// Exec node executes architecturally; its Trans is empty.
type Query struct {
	Branch int
	Trans  []int
	Exec   []int
}

// Analysis evaluates refutations for one engine run. It pairs the shared
// Facts with that run's window geometry (ROB size differs per engine).
// Not safe for concurrent use — each detector run owns one Analysis, as
// it owns one solver.
type Analysis struct {
	f   *Facts
	win WindowSource

	wit map[takeKey]*satWitness

	// bfs is the path searches' reusable scratch: epoch-stamped visit
	// marks, so each search clears nothing (see nextEpoch). Owned by the
	// single detector goroutine that owns this Analysis (see the type
	// comment above).
	bfs struct {
		parent []int32
		stamp  []uint32
		epoch  uint32
		queue  []int32
		ord    []int32 // topological positions, for search pruning
	}
	// entry is the entry-rooted BFS tree's parent links (-1 where the
	// entry does not reach) and hop each node's nearest branch hop on its
	// tree path, both built by entryTree on first use.
	entry, hop []int32
	// take is the witness builders' take-assignment scratch: 0 unset, 1
	// false, 2 true, with the set nodes listed in taken. replays memoises
	// arch-witness replays by the branches set false, sorted in falses
	// and keyed in keyBuf.
	take    []int8
	taken   []int
	replays map[string]*replayed
	falses  []int
	keyBuf  []byte
}

// NewAnalysis binds facts to an engine run's window source.
func NewAnalysis(f *Facts, win WindowSource) *Analysis {
	return &Analysis{
		f: f, win: win, wit: map[takeKey]*satWitness{},
		take: make([]int8, f.G.Len()), replays: map[string]*replayed{},
	}
}

// Facts exposes the shared fact base (for -why descriptions).
func (a *Analysis) Facts() *Facts { return a.f }

// takeKey names one (branch, take value) pair.
type takeKey struct {
	b int
	v bool
}

// arm is the successor of a branch that take value v mispredicts: take=true
// resolves the branch to its first successor, so transient fetch runs down
// the second, and take=false the other way round. arm(v) over-approximates
// TransUnder under take(b)=v: every node transiently fetched by a
// satisfying assignment with take(b)=v is fetchable down arm(v) of b's
// window (outside the window TransUnder is constant false).
func arm(v bool) int {
	if v {
		return 1
	}
	return 0
}

// Decide is the pre-solver's decision entry point. A window query gets the
// refutation rule and, failing that, its witness dual; a branch-free query
// gets the architectural witness rule (witnessArch). Every query is
// derived afresh — repeated queries are rare, and the detector keeps the
// first certificate per key — while the per-(branch, take) arm sets,
// witnesses and path replays the rules share are memoized. Arm
// eligibility is read from the window source, which already holds it. When cert is
// non-nil exactly one of refuted/witnessed is true.
func (a *Analysis) Decide(q Query) (cert *Certificate, refuted, witnessed bool) {
	if q.Branch < 0 {
		c := a.witnessArch(q.Exec)
		return c, false, c != nil
	}
	if c := a.refute(q); c != nil {
		return c, true, false
	}
	if c := a.witness(q); c != nil {
		return c, false, true
	}
	return nil, false, false
}

// refute decides whether q is statically UNSAT. On success it returns the
// certificate witnessing infeasibility of both take directions.
func (a *Analysis) refute(q Query) *Certificate {
	tcF, refF := a.refuteCase(q, false)
	if !refF {
		return nil
	}
	tcT, refT := a.refuteCase(q, true)
	if !refT {
		return nil
	}
	return &Certificate{
		Kind: KindWindow,
		Fn:   a.f.G.Fn,
		Key:  queryKey(q),
		Window: &WindowFact{
			Branch: q.Branch,
			Trans:  sortedCopy(q.Trans),
			Exec:   sortedCopy(q.Exec),
			Cases:  [2]TakeCase{tcF, tcT},
		},
	}
}

// refuteCase tries to refute q under take(Branch)=v, returning the witness
// when the direction is infeasible: some Trans node cannot be fetched down
// the arm v mispredicts, so its TransUnder literal is false under v.
func (a *Analysis) refuteCase(q Query, v bool) (TakeCase, bool) {
	for _, t := range q.Trans {
		arms, dist, ok := a.win.WindowInfo(q.Branch, t)
		if ok && arms[arm(v)] {
			continue
		}
		tc := TakeCase{Take: v, Reason: ReasonOutsideWindow, Node: t}
		if ok {
			tc.Reason, tc.Dist = ReasonArmConflict, dist
		}
		return tc, true
	}
	return TakeCase{Take: v}, false
}

// InBoundsCert packages the facts behind an in-bounds prune of access
// node n — the extent dataflow.Pruner.InBoundsAccess decided on — as a
// certificate. It returns nil on a nil Analysis (the pre-solver is off).
func (a *Analysis) InBoundsCert(n *acfg.Node, e dataflow.Extent) *Certificate {
	if a == nil {
		return nil
	}
	return &Certificate{
		Kind: KindInBounds,
		Fn:   a.f.G.Fn,
		Key:  fmt.Sprintf("in-bounds|n=%d", n.ID),
		InBounds: &BoundsFact{
			Access: n.ID,
			Line:   n.Instr.Line,
			Base:   baseName(e.Addr),
			Lo:     e.Addr.Off.Lo,
			Hi:     e.Addr.Off.Hi,
			Width:  e.Width,
			Object: e.Object,
		},
	}
}

// DisjointCert packages the facts behind a disjoint prune of (store s,
// load l) — the extents dataflow.Pruner.DisjointPair decided on — as a
// certificate. It returns nil on a nil Analysis (the pre-solver is off).
func (a *Analysis) DisjointCert(s, l *acfg.Node, se, le dataflow.Extent) *Certificate {
	if a == nil {
		return nil
	}
	return &Certificate{
		Kind: KindDisjoint,
		Fn:   a.f.G.Fn,
		Key:  fmt.Sprintf("stl-disjoint|s=%d|l=%d", s.ID, l.ID),
		Disjoint: &DisjointFact{
			Store:      s.ID,
			Load:       l.ID,
			Base:       baseName(se.Addr),
			StoreLo:    se.Addr.Off.Lo,
			StoreHi:    se.Addr.Off.Hi,
			StoreWidth: se.Width,
			LoadLo:     le.Addr.Off.Lo,
			LoadHi:     le.Addr.Off.Hi,
			LoadWidth:  le.Width,
			LoadFree:   se.Addr.Off.LoadFree && le.Addr.Off.LoadFree,
		},
	}
}

// Recheck re-derives a certificate from the current graph and facts and
// requires the stored facts to agree exactly: window and witness
// certificates through Decide, range certificates through the pruner's
// rules on freshly resolved extents. (The SAT replay of window and witness
// decisions happens in the detect engine under audit.)
func (a *Analysis) Recheck(c *Certificate) error {
	if err := c.Check(); err != nil {
		return err
	}
	switch c.Kind {
	case KindWindow:
		w := c.Window
		d, ok, _ := a.Decide(Query{Branch: w.Branch, Trans: w.Trans, Exec: w.Exec})
		if !ok {
			return fmt.Errorf("window query %s no longer refuted", c.Key)
		}
		if !reflect.DeepEqual(d.Window, w) {
			return fmt.Errorf("window witness drifted for %s", c.Key)
		}
	case KindWitness:
		w := c.Witness
		d, _, ok := a.Decide(Query{Branch: w.Branch, Trans: w.Trans, Exec: w.Exec})
		if !ok {
			return fmt.Errorf("window query %s no longer witnessed", c.Key)
		}
		if !reflect.DeepEqual(d.Witness, w) {
			return fmt.Errorf("sat witness drifted for %s", c.Key)
		}
	case KindArchWitness:
		w := c.Arch
		d, _, ok := a.Decide(Query{Branch: -1, Exec: w.Nodes})
		if !ok {
			return fmt.Errorf("arch query %s no longer witnessed", c.Key)
		}
		if !reflect.DeepEqual(d.Arch, w) {
			return fmt.Errorf("arch witness drifted for %s", c.Key)
		}
	case KindInBounds:
		n := a.node(c.InBounds.Access)
		e, ok := a.extent(n)
		if !ok || !e.InBounds() {
			return fmt.Errorf("in-bounds facts no longer derivable for %s", c.Key)
		}
		if !reflect.DeepEqual(a.InBoundsCert(n, e).InBounds, c.InBounds) {
			return fmt.Errorf("in-bounds facts drifted for %s", c.Key)
		}
	case KindDisjoint:
		s, l := a.node(c.Disjoint.Store), a.node(c.Disjoint.Load)
		se, ok1 := a.extent(s)
		le, ok2 := a.extent(l)
		if !ok1 || !ok2 || !s.IsStore() || !l.IsLoad() || !dataflow.Disjoint(se, le) {
			return fmt.Errorf("stl-disjoint facts no longer derivable for %s", c.Key)
		}
		if !reflect.DeepEqual(a.DisjointCert(s, l, se, le).Disjoint, c.Disjoint) {
			return fmt.Errorf("stl-disjoint facts drifted for %s", c.Key)
		}
	default:
		return fmt.Errorf("unknown certificate kind %q", c.Kind)
	}
	return nil
}

// node returns the A-CFG node with the given ID (nil when out of range).
func (a *Analysis) node(id int) *acfg.Node {
	if id < 0 || id >= a.f.G.Len() {
		return nil
	}
	return a.f.G.Nodes[id]
}

// extent resolves a memory node's footprint through the range facts the
// pruner decides on (ok is false without them or for a non-access).
func (a *Analysis) extent(n *acfg.Node) (dataflow.Extent, bool) {
	if a.f.MR == nil || n == nil {
		return dataflow.Extent{}, false
	}
	return a.f.MR.Extent(n.Instr)
}

// sortedCopy normalizes a node list; empty lists become nil so that
// certificates compare equal across a JSON round-trip (omitempty).
func sortedCopy(ns []int) []int {
	if len(ns) == 0 {
		return nil
	}
	s := append([]int{}, ns...)
	slices.Sort(s)
	return s
}
