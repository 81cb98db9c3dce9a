package presolve

import (
	"fmt"
	"slices"
	"strconv"
)

// Certificate kinds. A window certificate refutes one solver query of a
// speculation-window engine; the range kinds refute one candidate from
// interval facts alone.
const (
	KindWindow      = "window"       // no take value lets the query's nodes co-occupy the window
	KindWitness     = "sat-witness"  // explicit satisfying assignment: query holds without a solver call
	KindArchWitness = "arch-witness" // branch-free SAT witness: one take-selected path covers every node
	KindInBounds    = "in-bounds"    // universal access confined to its base object
	KindDisjoint    = "stl-disjoint" // store/load pair provably byte-disjoint under bypass
)

// Take-case infeasibility reasons recorded in window certificates.
const (
	ReasonOutsideWindow = "outside-window" // TransUnder is constant false for the node
	ReasonArmConflict   = "arm-conflict"   // node only fetchable down the arm the take value rules out
)

// Certificate is one machine-checkable static decision. Exactly one of
// Window/Witness/Arch/InBounds/Disjoint is set, per Kind. Certificates are emitted by
// the pre-solver, retained on detect.Result, replayed by -audit-presolve,
// and pinned by the golden tests — the serialized form is part of the
// stable tooling surface.
type Certificate struct {
	Kind string `json:"kind"`
	Fn   string `json:"fn"`
	// Key is the deduplication key: the candidate or query identity the
	// refutation discharges.
	Key string `json:"key"`

	Window   *WindowFact   `json:"window,omitempty"`
	Witness  *WitnessFact  `json:"witness,omitempty"`
	Arch     *ArchFact     `json:"arch,omitempty"`
	InBounds *BoundsFact   `json:"in_bounds,omitempty"`
	Disjoint *DisjointFact `json:"disjoint,omitempty"`

	// Disagreement is set by audit mode when the SAT replay (or the fact
	// recheck) contradicts this refutation.
	Disagreement bool `json:"disagreement,omitempty"`
}

// WindowFact records a refuted speculation-window query: the branch, the
// nodes the query assumes transient (TransUnder) or fetched (ExecUnder),
// and one infeasibility witness per take value.
type WindowFact struct {
	Branch int   `json:"branch"`
	Trans  []int `json:"trans,omitempty"`
	Exec   []int `json:"exec,omitempty"`
	// Cases holds the per-take-value refutation: index 0 is take=false,
	// index 1 is take=true. A query is refuted only when both directions
	// of the branch are individually infeasible.
	Cases [2]TakeCase `json:"cases"`
}

// TakeCase is the infeasibility witness for one branch direction.
type TakeCase struct {
	Take   bool   `json:"take"`
	Reason string `json:"reason"`
	// Node is the Trans node the reason applies to.
	Node int `json:"node"`
	// Dist is the node's minimum fetch distance from the branch, when it
	// lies inside the window (0 otherwise).
	Dist int `json:"dist,omitempty"`
}

// WitnessFact records a statically constructed satisfying assignment: the
// take values select Path as the unique architectural path (Take is the
// query branch's own direction), and Fetch is the transient fetch set the
// data-feasibility fixpoint admits down the mispredicted arm. The query's
// Trans nodes all lie in Fetch and its Exec nodes in Fetch ∪ Path — so
// the assignment satisfies every literal and every asserted clause.
type WitnessFact struct {
	Branch int   `json:"branch"`
	Take   bool  `json:"take"`
	Trans  []int `json:"trans,omitempty"`
	Exec   []int `json:"exec,omitempty"`
	// Path is the architectural path in fetch order, entry first.
	Path []int `json:"path"`
	// Takes is the take assignment of every branch the path resolves.
	Takes []BranchTake `json:"takes,omitempty"`
	// Fetch is the transient fetch set, sorted.
	Fetch []int `json:"fetch,omitempty"`
}

// ArchFact records a branch-free SAT witness: Path is the take-selected
// architectural path covering every node in Nodes, Takes the assignment
// that selects it. No transient state is involved — every misspec and
// transin variable is false in the witnessed model.
type ArchFact struct {
	Nodes []int        `json:"nodes"`
	Path  []int        `json:"path"`
	Takes []BranchTake `json:"takes,omitempty"`
}

// BoundsFact records an in-bounds refutation of a universal access
// candidate: the access's resolved base object, byte-offset interval, and
// widths. Checkable by arithmetic alone: 0 <= Lo and Hi+Width <= Object.
type BoundsFact struct {
	Access int    `json:"access"` // A-CFG node of the access
	Line   int    `json:"line,omitempty"`
	Base   string `json:"base"`
	Lo     int64  `json:"lo"`
	Hi     int64  `json:"hi"`
	Width  int    `json:"width"`
	Object int    `json:"object"`
}

// DisjointFact records an STL bypass refutation: store and load resolve
// to the same base object with byte-disjoint, load-free offset intervals,
// so the load cannot observe the store being bypassed. Checkable by
// arithmetic alone: StoreHi+StoreWidth <= LoadLo or LoadHi+LoadWidth <=
// StoreLo, with LoadFree asserting the bounds survive store bypass.
type DisjointFact struct {
	Store      int    `json:"store"` // A-CFG node of the store
	Load       int    `json:"load"`  // A-CFG node of the load
	Base       string `json:"base"`
	StoreLo    int64  `json:"store_lo"`
	StoreHi    int64  `json:"store_hi"`
	StoreWidth int    `json:"store_width"`
	LoadLo     int64  `json:"load_lo"`
	LoadHi     int64  `json:"load_hi"`
	LoadWidth  int    `json:"load_width"`
	LoadFree   bool   `json:"load_free"`
}

// Check validates the certificate's internal consistency: the recorded
// facts must themselves entail the refutation. Window certificates carry
// reachability facts a bare arithmetic check cannot re-derive — those are
// replayed through the full SAT path by audit mode and re-derived from
// the graph by Analysis.Recheck — but their shape is still validated
// here: each take direction must be refuted by a known reason on one of
// the query's Trans nodes.
func (c *Certificate) Check() error {
	switch c.Kind {
	case KindWindow:
		w := c.Window
		if w == nil {
			return fmt.Errorf("window certificate without window fact")
		}
		if w.Cases[0].Take || !w.Cases[1].Take {
			return fmt.Errorf("window certificate cases out of order")
		}
		for _, tc := range w.Cases {
			switch tc.Reason {
			case ReasonOutsideWindow, ReasonArmConflict:
			case "":
				return fmt.Errorf("take=%v direction not refuted", tc.Take)
			default:
				return fmt.Errorf("take=%v direction has unknown reason %q", tc.Take, tc.Reason)
			}
			if !slices.Contains(w.Trans, tc.Node) {
				return fmt.Errorf("take=%v reason names node %d outside the query's trans nodes", tc.Take, tc.Node)
			}
		}
		return nil
	case KindWitness:
		w := c.Witness
		if w == nil {
			return fmt.Errorf("sat-witness certificate without witness fact")
		}
		if len(w.Path) == 0 {
			return fmt.Errorf("sat-witness with empty architectural path")
		}
		onPath := map[int]bool{}
		for _, n := range w.Path {
			onPath[n] = true
		}
		if !onPath[w.Branch] {
			return fmt.Errorf("witness path misses the misspeculating branch %d", w.Branch)
		}
		branchTake, haveTake := false, false
		for _, bt := range w.Takes {
			if bt.Branch == w.Branch {
				branchTake, haveTake = bt.Take, true
			}
		}
		if haveTake && branchTake != w.Take {
			return fmt.Errorf("take assignment contradicts the recorded branch direction")
		}
		fetch := map[int]bool{}
		for _, n := range w.Fetch {
			fetch[n] = true
		}
		for _, t := range w.Trans {
			if !fetch[t] {
				return fmt.Errorf("trans node %d not in the fetch set", t)
			}
		}
		for _, e := range w.Exec {
			if !fetch[e] && !onPath[e] {
				return fmt.Errorf("exec node %d neither fetched nor architectural", e)
			}
		}
		return nil
	case KindArchWitness:
		w := c.Arch
		if w == nil {
			return fmt.Errorf("arch-witness certificate without arch fact")
		}
		if len(w.Path) == 0 {
			return fmt.Errorf("arch-witness with empty path")
		}
		onPath := map[int]bool{}
		for _, n := range w.Path {
			onPath[n] = true
		}
		for _, n := range w.Nodes {
			if !onPath[n] {
				return fmt.Errorf("queried node %d not on the witness path", n)
			}
		}
		return nil
	case KindInBounds:
		b := c.InBounds
		if b == nil {
			return fmt.Errorf("in-bounds certificate without bounds fact")
		}
		if b.Base == "" || b.Width <= 0 || b.Object <= 0 {
			return fmt.Errorf("in-bounds certificate with unresolved base or widths")
		}
		if b.Lo < 0 || b.Hi < b.Lo || b.Hi+int64(b.Width) > int64(b.Object) {
			return fmt.Errorf("recorded interval [%d,%d]+%d escapes object of %d bytes",
				b.Lo, b.Hi, b.Width, b.Object)
		}
		return nil
	case KindDisjoint:
		d := c.Disjoint
		if d == nil {
			return fmt.Errorf("stl-disjoint certificate without disjoint fact")
		}
		if d.Base == "" || d.StoreWidth <= 0 || d.LoadWidth <= 0 {
			return fmt.Errorf("stl-disjoint certificate with unresolved base or widths")
		}
		if !d.LoadFree {
			return fmt.Errorf("offset bounds not load-free: untrusted under store bypass")
		}
		if d.StoreHi < d.StoreLo || d.LoadHi < d.LoadLo {
			return fmt.Errorf("recorded intervals are empty")
		}
		if d.StoreHi+int64(d.StoreWidth) > d.LoadLo && d.LoadHi+int64(d.LoadWidth) > d.StoreLo {
			return fmt.Errorf("recorded byte ranges overlap: store [%d,%d)+%d load [%d,%d)+%d",
				d.StoreLo, d.StoreHi, d.StoreWidth, d.LoadLo, d.LoadHi, d.LoadWidth)
		}
		return nil
	}
	return fmt.Errorf("unknown certificate kind %q", c.Kind)
}

// String renders the certificate as a single triage line.
func (c *Certificate) String() string {
	switch c.Kind {
	case KindWindow:
		w := c.Window
		return fmt.Sprintf("%s: window query on branch %d refuted (take=F: %s@%d, take=T: %s@%d)",
			c.Fn, w.Branch, w.Cases[0].Reason, w.Cases[0].Node, w.Cases[1].Reason, w.Cases[1].Node)
	case KindWitness:
		w := c.Witness
		return fmt.Sprintf("%s: window query on branch %d witnessed SAT (take=%v, |path|=%d, |fetch|=%d)",
			c.Fn, w.Branch, w.Take, len(w.Path), len(w.Fetch))
	case KindArchWitness:
		w := c.Arch
		return fmt.Sprintf("%s: arch query %v witnessed SAT (|path|=%d)", c.Fn, w.Nodes, len(w.Path))
	case KindInBounds:
		b := c.InBounds
		return fmt.Sprintf("%s: access %d in-bounds of %s: off [%d,%d]+%d <= %d",
			c.Fn, b.Access, b.Base, b.Lo, b.Hi, b.Width, b.Object)
	case KindDisjoint:
		d := c.Disjoint
		return fmt.Sprintf("%s: store %d / load %d disjoint in %s: [%d,%d)+%d vs [%d,%d)+%d",
			c.Fn, d.Store, d.Load, d.Base, d.StoreLo, d.StoreHi, d.StoreWidth, d.LoadLo, d.LoadHi, d.LoadWidth)
	}
	return c.Fn + ": " + c.Kind
}

// queryKey builds the stable deduplication key of a window query, once
// per certificate the window rules create. It formats into one grown byte
// buffer rather than through fmt; the byte layout is pinned by the
// certificate goldens, which is why the key still ends in an (always
// empty) "|a=" field.
func queryKey(q Query) string {
	buf := make([]byte, 0, 16+8*(len(q.Trans)+len(q.Exec)))
	buf = append(buf, "window|b="...)
	buf = strconv.AppendInt(buf, int64(q.Branch), 10)
	buf = append(buf, "|t="...)
	buf = appendSortedInts(buf, q.Trans)
	buf = append(buf, "|e="...)
	buf = appendSortedInts(buf, q.Exec)
	buf = append(buf, "|a="...)
	return string(buf)
}

// archKey builds the stable deduplication key of a branch-free arch query.
func archKey(nodes []int) string {
	buf := make([]byte, 0, 8+8*len(nodes))
	buf = append(buf, "arch|"...)
	buf = appendSortedInts(buf, nodes)
	return string(buf)
}

// appendSortedInts appends ns sorted and comma-separated. Query node
// lists are tiny, so the sort runs on a stack copy — a heap copy per
// field was a measurable share of the key path's allocations.
func appendSortedInts(buf []byte, ns []int) []byte {
	var tmp [8]int
	var s []int
	if len(ns) <= len(tmp) {
		s = tmp[:len(ns)]
		copy(s, ns)
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
	} else {
		s = sortedCopy(ns)
	}
	for i, n := range s {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(n), 10)
	}
	return buf
}
