package event

import "fmt"

// Builder constructs event Graphs incrementally. It allocates event IDs,
// maintains per-thread program order and transient fetch order chains, and
// closes po/tfo transitively on Finish (po and tfo are transitive relations,
// §2.1.1/§3.3).
type Builder struct {
	g       *Graph
	lastPO  map[int]int // thread → last committed event ID
	lastTFO map[int]int // thread → last fetched event ID
	top     *Event
	nextX   XSID
}

// NewBuilder returns a Builder whose graph already contains the ⊤ event
// (ID 0), the initialization bracket of §3.2.
func NewBuilder() *Builder {
	b := &Builder{
		g:       NewGraph(),
		lastPO:  make(map[int]int),
		lastTFO: make(map[int]int),
	}
	b.top = b.add(&Event{Kind: KTop, XState: XNone})
	return b
}

// Top returns the ⊤ event.
func (b *Builder) Top() *Event { return b.top }

// FreshX allocates a new xstate element ID.
func (b *Builder) FreshX() XSID {
	x := b.nextX
	b.nextX++
	return x
}

func (b *Builder) add(e *Event) *Event {
	e.ID = len(b.g.Events)
	b.g.Events = append(b.g.Events, e)
	return e
}

// chain links e into thread t's po/tfo chains. Transient and prefetch
// events join only the tfo chain. The first event of a thread is ordered
// after ⊤ in both po and tfo.
func (b *Builder) chain(t int, e *Event) *Event {
	e.Thread = t
	if last, ok := b.lastTFO[t]; ok {
		b.g.TFO.Add(last, e.ID)
	} else {
		b.g.TFO.Add(b.top.ID, e.ID)
	}
	b.lastTFO[t] = e.ID
	if e.Committed() {
		if last, ok := b.lastPO[t]; ok {
			b.g.PO.Add(last, e.ID)
		} else {
			b.g.PO.Add(b.top.ID, e.ID)
		}
		b.lastPO[t] = e.ID
	}
	return e
}

// Read appends a committed read of loc on thread t accessing xstate xs
// with mode xacc.
func (b *Builder) Read(t int, loc Location, xs XSID, xacc XAccess, label string) *Event {
	return b.chain(t, b.add(&Event{Kind: KRead, Loc: loc, XState: xs, XAcc: xacc, Label: label}))
}

// Write appends a committed write of loc on thread t.
func (b *Builder) Write(t int, loc Location, xs XSID, xacc XAccess, label string) *Event {
	return b.chain(t, b.add(&Event{Kind: KWrite, Loc: loc, XState: xs, XAcc: xacc, Label: label}))
}

// TransientRead appends a transient (squashed) read on thread t: ordered in
// tfo only (§3.3).
func (b *Builder) TransientRead(t int, loc Location, xs XSID, xacc XAccess, label string) *Event {
	return b.chain(t, b.add(&Event{Kind: KRead, Loc: loc, XState: xs, XAcc: xacc, Transient: true, Label: label}))
}

// TransientWrite appends a transient write on thread t.
func (b *Builder) TransientWrite(t int, loc Location, xs XSID, xacc XAccess, label string) *Event {
	return b.chain(t, b.add(&Event{Kind: KWrite, Loc: loc, XState: xs, XAcc: xacc, Transient: true, Label: label}))
}

// PrefetchRead appends a non-architectural prefetcher read (Fig. 5b):
// present in tfo and comx, absent from po/com.
func (b *Builder) PrefetchRead(t int, loc Location, xs XSID, label string) *Event {
	return b.chain(t, b.add(&Event{Kind: KRead, Loc: loc, XState: xs, XAcc: XRW, Prefetch: true, Label: label}))
}

// Branch appends a committed branch event on thread t.
func (b *Builder) Branch(t int, label string) *Event {
	return b.chain(t, b.add(&Event{Kind: KBranch, XState: XNone, Label: label}))
}

// Fence appends a committed fence on thread t.
func (b *Builder) Fence(t int, label string) *Event {
	return b.chain(t, b.add(&Event{Kind: KFence, XState: XNone, Label: label}))
}

// Skip appends a committed no-op event on thread t.
func (b *Builder) Skip(t int, label string) *Event {
	return b.chain(t, b.add(&Event{Kind: KSkip, XState: XNone, Label: label}))
}

// Bottom appends an observer (⊥) event at the end of thread t's committed
// path. The observer shares no memory with the program (§3.2): it joins po
// and tfo but can only communicate via comx.
func (b *Builder) Bottom(t int) *Event {
	return b.chain(t, b.add(&Event{Kind: KBottom, XState: XNone}))
}

// TransientBottom appends a ⊥ₛ marker reached along a squashed path
// (Fig. 2b). It is recorded as a Bottom-kind observer in tfo only.
func (b *Builder) TransientBottom(t int) *Event {
	e := b.add(&Event{Kind: KBottom, XState: XNone})
	// Bottom events are never "transient" per Event.Transient (they are
	// observers, not program instructions), but a speculative ⊥ must not
	// join po. Chain it manually into tfo only.
	e.Thread = t
	if last, ok := b.lastTFO[t]; ok {
		b.g.TFO.Add(last, e.ID)
	} else {
		b.g.TFO.Add(b.top.ID, e.ID)
	}
	b.lastTFO[t] = e.ID
	return e
}

// AddrDep records an address dependency from read r to memory event m; gep
// marks it as a getelementptr-style index dependency (§5.2).
func (b *Builder) AddrDep(r, m *Event, gep bool) {
	b.g.Addr.Add(r.ID, m.ID)
	if gep {
		b.g.AddrGEP.Add(r.ID, m.ID)
	}
}

// DataDep records a data dependency from read r to write w.
func (b *Builder) DataDep(r, w *Event) { b.g.Data.Add(r.ID, w.ID) }

// CtrlDep records a control dependency from read r to event m.
func (b *Builder) CtrlDep(r, m *Event) { b.g.Ctrl.Add(r.ID, m.ID) }

// RF adds an architectural reads-from pair.
func (b *Builder) RF(w, r *Event) { b.g.RF.Add(w.ID, r.ID) }

// CO adds an architectural coherence pair.
func (b *Builder) CO(w0, w1 *Event) { b.g.CO.Add(w0.ID, w1.ID) }

// RFX adds a microarchitectural reads-from pair.
func (b *Builder) RFX(w, r *Event) { b.g.RFX.Add(w.ID, r.ID) }

// COX adds a microarchitectural coherence pair.
func (b *Builder) COX(w0, w1 *Event) { b.g.COX.Add(w0.ID, w1.ID) }

// Graph returns the graph under construction without finalizing it.
func (b *Builder) Graph() *Graph { return b.g }

// Finish transitively closes po, tfo, and co, validates the graph, and
// returns it. It panics on a malformed graph — builders are driven by
// static program descriptions, so malformation is a programming error.
func (b *Builder) Finish() *Graph {
	b.g.PO = b.g.PO.TransitiveClosure()
	b.g.TFO = b.g.TFO.TransitiveClosure()
	b.g.CO = b.g.CO.TransitiveClosure()
	b.g.COX = b.g.COX.TransitiveClosure()
	if err := b.g.Validate(); err != nil {
		panic(fmt.Sprintf("event.Builder.Finish: %v", err))
	}
	return b.g
}
