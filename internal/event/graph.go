package event

import (
	"fmt"

	"lcm/internal/relation"
)

// Graph is an event structure, optionally extended with an execution
// witness (rf, co) and a microarchitectural witness (rfx, cox) to form a
// candidate execution with a microarchitectural semantics (§2.1.2, §3.2.2).
// fr and frx are always derived: fr = ~rf.co, frx = ~rfx.cox.
type Graph struct {
	Events []*Event

	// Event-structure relations (§2.1.1, §3.3).
	PO   *relation.Relation // program order on committed events
	TFO  *relation.Relation // transient fetch order; PO ⊆ TFO
	Addr *relation.Relation // address dependencies
	Data *relation.Relation // data dependencies
	Ctrl *relation.Relation // control dependencies
	// AddrGEP marks the subset of Addr where the read's value is an index
	// added to a base pointer (getelementptr-style, §5.2). AddrGEP ⊆ Addr.
	AddrGEP *relation.Relation
	Fence   *relation.Relation // explicit fence ordering

	// Execution witness (architectural, §2.1.2).
	RF *relation.Relation // Write → Read, same Location
	CO *relation.Relation // Write → Write, same Location (transitive)

	// Microarchitectural witness (§3.2.2).
	RFX *relation.Relation // xstate writer → xstate reader, same xstate
	COX *relation.Relation // xstate writer → xstate writer, same xstate
}

// NewGraph returns an empty graph with all relations initialized.
func NewGraph() *Graph {
	return &Graph{
		PO:      relation.New(),
		TFO:     relation.New(),
		Addr:    relation.New(),
		Data:    relation.New(),
		Ctrl:    relation.New(),
		AddrGEP: relation.New(),
		Fence:   relation.New(),
		RF:      relation.New(),
		CO:      relation.New(),
		RFX:     relation.New(),
		COX:     relation.New(),
	}
}

// Event returns the event with the given ID, or nil.
func (g *Graph) Event(id int) *Event {
	if id < 0 || id >= len(g.Events) {
		return nil
	}
	return g.Events[id]
}

// Clone returns a deep copy of the graph structure (events are shared —
// they are immutable after construction — but all relations are copied).
func (g *Graph) Clone() *Graph {
	c := &Graph{Events: append([]*Event(nil), g.Events...)}
	c.PO = g.PO.Clone()
	c.TFO = g.TFO.Clone()
	c.Addr = g.Addr.Clone()
	c.Data = g.Data.Clone()
	c.Ctrl = g.Ctrl.Clone()
	c.AddrGEP = g.AddrGEP.Clone()
	c.Fence = g.Fence.Clone()
	c.RF = g.RF.Clone()
	c.CO = g.CO.Clone()
	c.RFX = g.RFX.Clone()
	c.COX = g.COX.Clone()
	return c
}

// Reads returns the IDs of all Read memory events (excluding prefetches).
func (g *Graph) Reads() relation.Set {
	s := relation.NewSet()
	for _, e := range g.Events {
		if e.Kind == KRead && !e.Prefetch {
			s.Add(e.ID)
		}
	}
	return s
}

// Writes returns the IDs of all Write memory events.
func (g *Graph) Writes() relation.Set {
	s := relation.NewSet()
	for _, e := range g.Events {
		if e.Kind == KWrite {
			s.Add(e.ID)
		}
	}
	return s
}

// MemoryEvents returns the IDs of all architectural memory events.
func (g *Graph) MemoryEvents() relation.Set {
	s := relation.NewSet()
	for _, e := range g.Events {
		if e.IsMemory() {
			s.Add(e.ID)
		}
	}
	return s
}

// Tops and Bottoms return the bracket events.
func (g *Graph) Tops() []*Event {
	var ts []*Event
	for _, e := range g.Events {
		if e.Kind == KTop {
			ts = append(ts, e)
		}
	}
	return ts
}

// Bottoms returns all observer (⊥) events.
func (g *Graph) Bottoms() []*Event {
	var bs []*Event
	for _, e := range g.Events {
		if e.Kind == KBottom {
			bs = append(bs, e)
		}
	}
	return bs
}

// SameLoc reports whether events a and b access the same architectural
// location. Top is treated as writing every location.
func (g *Graph) SameLoc(a, b int) bool {
	ea, eb := g.Events[a], g.Events[b]
	if ea.Kind == KTop || eb.Kind == KTop {
		return true
	}
	return ea.Loc != "" && ea.Loc == eb.Loc
}

// SameX reports whether events a and b access the same xstate element.
// Top initializes every xstate element; Bottom observes every element.
func (g *Graph) SameX(a, b int) bool {
	ea, eb := g.Events[a], g.Events[b]
	if ea.Kind == KTop || eb.Kind == KTop || ea.Kind == KBottom || eb.Kind == KBottom {
		return true
	}
	return ea.XState != XNone && ea.XState == eb.XState
}

// FR derives the from-reads relation fr = ~rf.co \ id (§2.1.2). Two
// filters correct for composition through the ⊤ bracket, which initializes
// every location: the identity is excluded (a read never from-reads
// itself), and the pair must relate same-location events — composing a
// read of x with a write of y through ⊤ is not a from-reads relationship.
func (g *Graph) FR() *relation.Relation {
	return g.RF.Transpose().Compose(g.CO).Filter(func(a, b int) bool {
		return a != b && g.Events[a].Loc == g.Events[b].Loc
	})
}

// FRX derives the microarchitectural from-reads relation frx = ~rfx.cox \ id,
// restricted to same-xstate pairs (⊤ writes every xstate element, so the
// raw composition would relate unrelated accesses).
func (g *Graph) FRX() *relation.Relation {
	return g.RFX.Transpose().Compose(g.COX).Filter(func(a, b int) bool {
		ea, eb := g.Events[a], g.Events[b]
		if a == b || ea.Kind == KBottom || eb.Kind == KBottom {
			return false
		}
		return ea.XState != XNone && ea.XState == eb.XState
	})
}

// Com returns the architectural communication relation com = rf + co + fr.
func (g *Graph) Com() *relation.Relation {
	return relation.Union(g.RF, g.CO, g.FR())
}

// ComX returns the microarchitectural communication relation
// comx = rfx + cox + frx (§3.2.2).
func (g *Graph) ComX() *relation.Relation {
	return relation.Union(g.RFX, g.COX, g.FRX())
}

// Dep returns the dependency relation dep = addr + data + ctrl.
func (g *Graph) Dep() *relation.Relation {
	return relation.Union(g.Addr, g.Data, g.Ctrl)
}

// POLoc returns the subset of po relating same-location memory events.
func (g *Graph) POLoc() *relation.Relation {
	return g.PO.Filter(func(a, b int) bool {
		return g.Events[a].IsMemory() && g.Events[b].IsMemory() && g.SameLoc(a, b)
	})
}

// TFOLoc returns the subset of tfo relating same-location memory events
// (used by the Spectre v4 discussion of §4.2: an x86 LCM must permit
// frx+tfo_loc cycles).
func (g *Graph) TFOLoc() *relation.Relation {
	return g.TFO.Filter(func(a, b int) bool {
		ea, eb := g.Events[a], g.Events[b]
		return (ea.Kind == KRead || ea.Kind == KWrite) &&
			(eb.Kind == KRead || eb.Kind == KWrite) && g.SameLoc(a, b)
	})
}

// RFI returns the internal (same-thread) subset of rf; RFE the external one.
func (g *Graph) RFI() *relation.Relation {
	return g.RF.Filter(func(a, b int) bool {
		return g.Events[a].Kind != KTop && g.Events[a].Thread == g.Events[b].Thread
	})
}

// RFE returns rf-external: rf pairs crossing threads (Top counts as
// external to every thread, matching the convention that initialization
// writes are on no thread).
func (g *Graph) RFE() *relation.Relation {
	return g.RF.Filter(func(a, b int) bool {
		return g.Events[a].Kind == KTop || g.Events[a].Thread != g.Events[b].Thread
	})
}

// TransientEvents returns the IDs of transient events.
func (g *Graph) TransientEvents() relation.Set {
	s := relation.NewSet()
	for _, e := range g.Events {
		if e.Transient {
			s.Add(e.ID)
		}
	}
	return s
}

// Validate checks structural well-formedness of the event structure and any
// attached witnesses. It returns the first problem found, or nil.
func (g *Graph) Validate() error {
	for i, e := range g.Events {
		if e == nil {
			return fmt.Errorf("event %d is nil", i)
		}
		if e.ID != i {
			return fmt.Errorf("event at index %d has ID %d", i, e.ID)
		}
		if (e.Kind == KRead || e.Kind == KWrite) && e.Loc == "" && !e.Prefetch {
			return fmt.Errorf("memory event %d has empty location", i)
		}
		if e.Transient && (e.Kind == KTop || e.Kind == KBottom) {
			return fmt.Errorf("bracket event %d marked transient", i)
		}
	}
	inRange := func(name string, r *relation.Relation) error {
		for _, p := range r.Pairs() {
			if g.Event(p.From) == nil || g.Event(p.To) == nil {
				return fmt.Errorf("%s pair %v references unknown event", name, p)
			}
		}
		return nil
	}
	for _, nr := range []struct {
		name string
		r    *relation.Relation
	}{
		{"po", g.PO}, {"tfo", g.TFO}, {"addr", g.Addr}, {"data", g.Data},
		{"ctrl", g.Ctrl}, {"addr_gep", g.AddrGEP}, {"fence", g.Fence},
		{"rf", g.RF}, {"co", g.CO}, {"rfx", g.RFX}, {"cox", g.COX},
	} {
		if err := inRange(nr.name, nr.r); err != nil {
			return err
		}
	}
	// po ⊆ tfo (§3.3) and po relates committed events only.
	for _, p := range g.PO.Pairs() {
		if !g.TFO.Has(p.From, p.To) {
			return fmt.Errorf("po pair %v not in tfo", p)
		}
		if !g.Events[p.From].Committed() || !g.Events[p.To].Committed() {
			return fmt.Errorf("po pair %v involves a transient or prefetch event", p)
		}
	}
	if !g.PO.IsAcyclic() {
		return fmt.Errorf("po is cyclic: %v", g.PO.FindCycle())
	}
	if !g.TFO.IsAcyclic() {
		return fmt.Errorf("tfo is cyclic: %v", g.TFO.FindCycle())
	}
	// addr_gep ⊆ addr.
	for _, p := range g.AddrGEP.Pairs() {
		if !g.Addr.Has(p.From, p.To) {
			return fmt.Errorf("addr_gep pair %v not in addr", p)
		}
	}
	// Dependencies originate at reads (§2.1.3).
	for _, rel := range []*relation.Relation{g.Addr, g.Data, g.Ctrl} {
		for _, p := range rel.Pairs() {
			if !g.Events[p.From].IsRead() {
				return fmt.Errorf("dependency %v does not originate at a read", p)
			}
		}
	}
	// rf: writers (or Top) to same-location readers; each read from at most
	// one write.
	rfInto := make(map[int]int)
	for _, p := range g.RF.Pairs() {
		w, r := g.Events[p.From], g.Events[p.To]
		if !(w.IsWrite() || w.Kind == KTop) {
			return fmt.Errorf("rf source %d is not a write", p.From)
		}
		if !r.IsRead() && r.Kind != KBottom {
			return fmt.Errorf("rf target %d is not a read", p.To)
		}
		if !g.SameLoc(p.From, p.To) && r.Kind != KBottom {
			return fmt.Errorf("rf pair %v relates different locations", p)
		}
		rfInto[p.To]++
		if rfInto[p.To] > 1 {
			return fmt.Errorf("read %d has multiple rf sources", p.To)
		}
	}
	// co: same-location writes, acyclic.
	for _, p := range g.CO.Pairs() {
		w0, w1 := g.Events[p.From], g.Events[p.To]
		if !(w0.IsWrite() || w0.Kind == KTop) || !w1.IsWrite() {
			return fmt.Errorf("co pair %v is not write→write", p)
		}
		if !g.SameLoc(p.From, p.To) {
			return fmt.Errorf("co pair %v relates different locations", p)
		}
	}
	if !g.CO.IsAcyclic() {
		return fmt.Errorf("co is cyclic")
	}
	// rfx: xstate writers to same-xstate readers, at most one source per
	// reader per xstate. We key on (reader, xstate-of-writer) to allow a
	// Bottom observer to read several xstate elements.
	type rk struct {
		reader int
		xs     XSID
	}
	rfxInto := make(map[rk]int)
	for _, p := range g.RFX.Pairs() {
		w, r := g.Events[p.From], g.Events[p.To]
		if !w.WritesX() {
			return fmt.Errorf("rfx source %d does not write xstate", p.From)
		}
		if !r.ReadsX() {
			return fmt.Errorf("rfx target %d does not read xstate", p.To)
		}
		if !g.SameX(p.From, p.To) {
			return fmt.Errorf("rfx pair %v relates different xstate", p)
		}
		key := rk{p.To, g.Events[p.From].XState}
		rfxInto[key]++
		if rfxInto[key] > 1 && r.Kind != KBottom {
			return fmt.Errorf("event %d has multiple rfx sources for one xstate", p.To)
		}
	}
	for _, p := range g.COX.Pairs() {
		if !g.Events[p.From].WritesX() || !g.Events[p.To].WritesX() {
			return fmt.Errorf("cox pair %v is not xwrite→xwrite", p)
		}
		if !g.SameX(p.From, p.To) {
			return fmt.Errorf("cox pair %v relates different xstate", p)
		}
	}
	if !g.COX.IsAcyclic() {
		return fmt.Errorf("cox is cyclic")
	}
	return nil
}

// String renders the graph as a deterministic multi-line listing.
func (g *Graph) String() string {
	var lines []string
	for _, e := range g.Events {
		lines = append(lines, e.String())
	}
	add := func(name string, r *relation.Relation) {
		if !r.IsEmpty() {
			lines = append(lines, fmt.Sprintf("%s: %s", name, r))
		}
	}
	add("po", g.PO)
	add("tfo", g.TFO)
	add("addr", g.Addr)
	add("data", g.Data)
	add("ctrl", g.Ctrl)
	add("rf", g.RF)
	add("co", g.CO)
	add("rfx", g.RFX)
	add("cox", g.COX)
	sortedJoin := ""
	for i, l := range lines {
		if i > 0 {
			sortedJoin += "\n"
		}
		sortedJoin += l
	}
	return sortedJoin
}
