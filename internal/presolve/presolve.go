// Package presolve is the proof-carrying static pre-solver: it classifies
// S-AEG detect candidates as Refuted (with a machine-checkable certificate)
// or Unknown before any SAT query is issued. It layers three flow-sensitive
// facts on top of the existing per-function frontend:
//
//   - a must-alias / must-not-alias partition refining internal/alias's
//     flow-insensitive points-to sets (partition.go);
//   - interval facts from internal/dataflow proving address separation,
//     reused verbatim from the trusted pruner so the range certificates
//     record exactly the arithmetic behind each prune decision;
//   - speculative-window arm eligibility: per branch and take value, the
//     window nodes that can be transiently fetched down the arm that take
//     value mispredicts.
//
// The window rule is the only rule that entails UNSAT of an actual solver
// query, so it is the one -audit-presolve replays through the full SAT
// path; the range rules mirror the pruner (which already suppressed the
// SAT work) and are rechecked by arithmetic. Everything here is pure
// static computation over immutable inputs — results are independent of
// worker count, keeping reports byte-identical across -j levels.
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

// Facts bundles one function's engine-independent static facts. It is
// built once per (function, A-CFG options) by the detect cache and shared
// by every engine run and audit replay; all lazy members are safe for
// concurrent use.
type Facts struct {
	G  *acfg.Graph
	Al *alias.Analysis
	MR *dataflow.ModuleRanges // nil when range facts are unavailable

	partOnce sync.Once
	part     *Partition
}

// NewFacts builds the shared fact base for one function.
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

	arms  map[takeKey]*armSet
	memo  map[string]*Certificate // queryKey → cert; nil entry = known not refuted
	wit   map[takeKey]*satWitness
	wmemo map[string]*Certificate // queryKey → witness cert; nil = no witness found
	amemo map[string]*Certificate // archKey → arch-witness cert; nil = none

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
		f: f, win: win,
		arms: map[takeKey]*armSet{}, memo: map[string]*Certificate{},
		wit: map[takeKey]*satWitness{}, wmemo: map[string]*Certificate{},
		amemo: map[string]*Certificate{},
		take:  make([]int8, f.G.Len()), replays: map[string]*replayed{},
	}
}

// Facts exposes the shared fact base (for -why descriptions).
func (a *Analysis) Facts() *Facts { return a.f }

// takeKey names one (branch, take value) pair.
type takeKey struct {
	b int
	v bool
}

// armSet is the arm eligibility of one (branch, take value) pair: the
// window nodes fetchable down the arm the take value mispredicts.
type armSet struct {
	in  dataflow.BitSet
	ids []int // the members, ascending
}

// armsFor returns (computing on first use) the arm eligibility of (b, v).
// It over-approximates TransUnder under take(b)=v: outside the window
// TransUnder is constant false, and fetching down arm i asserts the take
// value that makes arm i the mispredicted path (take=true resolves the
// branch to its first successor, so transient fetch down it needs
// take=false). Every node transiently fetched by a satisfying assignment
// with take(b)=v is therefore a member.
func (a *Analysis) armsFor(b int, v bool) *armSet {
	k := takeKey{b, v}
	if as, ok := a.arms[k]; ok {
		return as
	}
	as := &armSet{in: dataflow.NewBitSet(a.f.G.Len())}
	a.win.ForEachWindowNode(b, func(id int, arms [2]bool) {
		if (v && arms[1]) || (!v && arms[0]) {
			as.in.Set(id)
			as.ids = append(as.ids, id)
		}
	})
	a.arms[k] = as
	return as
}

// Decide is the pre-solver's decision entry point. A window query gets the
// refutation rule and, failing that, its witness dual, with the query key
// computed once — every decided query consults both memos, and formatting
// plus hashing the key twice shows up in the candidate loops. A
// branch-free query gets the architectural witness rule (witnessArch).
// When cert is non-nil exactly one of refuted/witnessed is true.
func (a *Analysis) Decide(q Query) (cert *Certificate, refuted, witnessed bool) {
	if q.Branch < 0 {
		c := a.witnessArch(q.Exec)
		return c, false, c != nil
	}
	key := queryKey(q)
	if c, ok := a.refuteKeyed(key, q); ok {
		return c, true, false
	}
	if c, ok := a.witnessKeyed(key, q); ok {
		return c, false, true
	}
	return nil, false, false
}

// refuteKeyed decides whether q is statically UNSAT, with the key
// precomputed by the caller. On success it returns the certificate
// witnessing infeasibility of both take directions.
func (a *Analysis) refuteKeyed(key string, q Query) (*Certificate, bool) {
	if c, ok := a.memo[key]; ok {
		return c, c != nil
	}
	tcF, refF := a.refuteCase(q, false)
	if !refF {
		a.memo[key] = nil
		return nil, false
	}
	tcT, refT := a.refuteCase(q, true)
	if !refT {
		a.memo[key] = nil
		return nil, false
	}
	c := &Certificate{
		Kind: KindWindow,
		Fn:   a.f.G.Fn,
		Key:  key,
		Window: &WindowFact{
			Branch: q.Branch,
			Trans:  sortedCopy(q.Trans),
			Exec:   sortedCopy(q.Exec),
			Cases:  [2]TakeCase{tcF, tcT},
		},
	}
	a.memo[key] = c
	return c, true
}

// refuteCase tries to refute q under take(Branch)=v, returning the witness
// when the direction is infeasible: some Trans node cannot be fetched down
// the arm v mispredicts, so its TransUnder literal is false under v.
func (a *Analysis) refuteCase(q Query, v bool) (TakeCase, bool) {
	arms := a.armsFor(q.Branch, v)
	for _, t := range q.Trans {
		if arms.in.Has(t) {
			continue
		}
		tc := TakeCase{Take: v, Reason: ReasonOutsideWindow, Node: t}
		if _, dist, ok := a.win.WindowInfo(q.Branch, t); ok {
			tc.Reason, tc.Dist = ReasonArmConflict, dist
		}
		return tc, true
	}
	return TakeCase{Take: v}, false
}

// CertInBounds reconstructs the interval facts behind a successful
// InBoundsAccess prune of the access at node n and packages them as a
// certificate. It mirrors dataflow.RangeAnalysis.InBounds exactly; a false
// return with a pruner that fired is an audit disagreement.
func (a *Analysis) CertInBounds(n *acfg.Node) (*Certificate, bool) {
	if a.f.MR == nil || n == nil || n.Instr == nil {
		return nil, false
	}
	i := addrOperand(n)
	if i < 0 {
		return nil, false
	}
	r := a.f.MR.ForInstr(n.Instr)
	if r == nil {
		return nil, false
	}
	ai := r.Addr(n.Instr.Args[i])
	if !ai.Known || !ai.Off.Bounded() || ai.Off.Lo < 0 {
		return nil, false
	}
	obj := objectSize(ai)
	w := accessWidth(n)
	if obj <= 0 || w <= 0 {
		return nil, false
	}
	// Hi is bounded and obj/w are positive ints, so the subtraction form
	// of the end comparison cannot overflow.
	if ai.Off.Hi > int64(obj)-int64(w) {
		return nil, false
	}
	return &Certificate{
		Kind: KindInBounds,
		Fn:   a.f.G.Fn,
		Key:  fmt.Sprintf("in-bounds|n=%d", n.ID),
		InBounds: &BoundsFact{
			Access: n.ID,
			Line:   n.Instr.Line,
			Base:   baseName(ai),
			Lo:     ai.Off.Lo,
			Hi:     ai.Off.Hi,
			Width:  w,
			Object: obj,
		},
	}, true
}

// CertDisjoint reconstructs the facts behind a successful DisjointPair
// prune of (store s, load l), mirroring dataflow's DisjointRanges and the
// pruner's cross-inline global case.
func (a *Analysis) CertDisjoint(s, l *acfg.Node) (*Certificate, bool) {
	if a.f.MR == nil || s == nil || l == nil || !s.IsStore() || !l.IsLoad() {
		return nil, false
	}
	rs := a.f.MR.ForInstr(s.Instr)
	rl := a.f.MR.ForInstr(l.Instr)
	if rs == nil || rl == nil {
		return nil, false
	}
	as := rs.Addr(s.Instr.Args[1])
	al := rl.Addr(l.Instr.Args[0])
	if !as.Known || !al.Known {
		return nil, false
	}
	sameBase := (as.Global != nil && as.Global == al.Global) ||
		(rs == rl && as.Slot != nil && as.Slot == al.Slot)
	if !sameBase {
		return nil, false
	}
	if !as.Off.LoadFree || !al.Off.LoadFree || !as.Off.Bounded() || !al.Off.Bounded() {
		return nil, false
	}
	sw := accessWidth(s)
	lw := accessWidth(l)
	if sw <= 0 || lw <= 0 {
		return nil, false
	}
	sEnd, ok1 := addOv(as.Off.Hi, int64(sw))
	lEnd, ok2 := addOv(al.Off.Hi, int64(lw))
	if !ok1 || !ok2 || (sEnd > al.Off.Lo && lEnd > as.Off.Lo) {
		return nil, false
	}
	return &Certificate{
		Kind: KindDisjoint,
		Fn:   a.f.G.Fn,
		Key:  fmt.Sprintf("stl-disjoint|s=%d|l=%d", s.ID, l.ID),
		Disjoint: &DisjointFact{
			Store:      s.ID,
			Load:       l.ID,
			Base:       baseName(as),
			StoreLo:    as.Off.Lo,
			StoreHi:    as.Off.Hi,
			StoreWidth: sw,
			LoadLo:     al.Off.Lo,
			LoadHi:     al.Off.Hi,
			LoadWidth:  lw,
			LoadFree:   true,
		},
	}, true
}

// Recheck re-derives a certificate from the current graph and facts and
// verifies the stored facts agree — the audit path for certificates whose
// rule is not a SAT query (and a structural sanity pass for those that
// are; their SAT replay happens in the detect engine).
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
		d, ok := a.CertInBounds(n)
		if !ok {
			return fmt.Errorf("in-bounds facts no longer derivable for %s", c.Key)
		}
		if !reflect.DeepEqual(d.InBounds, c.InBounds) {
			return fmt.Errorf("in-bounds facts drifted for %s", c.Key)
		}
	case KindDisjoint:
		d, ok := a.CertDisjoint(a.node(c.Disjoint.Store), a.node(c.Disjoint.Load))
		if !ok {
			return fmt.Errorf("stl-disjoint facts no longer derivable for %s", c.Key)
		}
		if !reflect.DeepEqual(d.Disjoint, c.Disjoint) {
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

// objectSize is the byte size of a resolved base object.
func objectSize(ai dataflow.AddrInfo) int {
	switch {
	case ai.Global != nil:
		return ai.Global.Elem.Size()
	case ai.Slot != nil:
		return ai.Slot.AllocaElem.Size()
	}
	return 0
}

// addOv is overflow-checked addition, mirroring dataflow's helper.
func addOv(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
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
