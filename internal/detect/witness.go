package detect

import (
	"fmt"
	"slices"

	"lcm/internal/acfg"
	"lcm/internal/event"
	"lcm/internal/ir"
	"lcm/internal/presolve"
	"lcm/internal/sat"
)

// Witness reconstructs a candidate execution (§5: the graph form Clou
// outputs as evidence) for a finding: the architectural path and transient
// window from a satisfying model, with po/tfo, dependency edges recovered
// from def-use chains, rf from initial state, and the transmitter's rfx
// edge into the observer ⊥.
//
// A window finding (Branch >= 0) is re-asked as its branch's window with
// the transmitter transient; a branch-free finding as the architectural
// execution of its distinct nodes, which for each engine is exactly the
// node set its query asserted (STL/PSF: store, load, transmitter; IMP:
// both index and data instances; SS: feeder and store).
func Witness(res *Result, f Finding) (*event.Graph, error) {
	a := res.AEG
	q := presolve.Query{Branch: f.Branch}
	if f.Branch >= 0 {
		q.Trans = []int{f.Transmit}
	} else {
		for _, n := range []int{f.Store, f.Load, f.Access, f.Index, f.Transmit} {
			if n >= 0 && !slices.Contains(q.Exec, n) {
				q.Exec = append(q.Exec, n)
			}
		}
	}
	if a.Check(exprs(a, q)...) != sat.Sat {
		return nil, fmt.Errorf("witness: query no longer satisfiable")
	}
	archNodes, transNodes, _ := a.Model()

	arch := map[int]bool{}
	for _, n := range archNodes {
		arch[n] = true
	}
	trans := map[int]bool{}
	for _, n := range transNodes {
		if !arch[n] {
			trans[n] = true
		}
	}

	b := event.NewBuilder()
	top := b.Top()
	evOf := map[int]*event.Event{}
	xOf := map[string]event.XSID{}

	xstate := func(loc string) event.XSID {
		if x, ok := xOf[loc]; ok {
			return x
		}
		x := b.FreshX()
		xOf[loc] = x
		return x
	}

	emit := func(id int, transient bool) {
		n := res.Graph.Nodes[id]
		loc := locOf(res.Graph, n)
		label := fmt.Sprintf("n%d: %s", id, n.Instr)
		switch {
		case n.IsLoad():
			if transient {
				evOf[id] = b.TransientRead(0, event.Location(loc), xstate(loc), event.XRW, label)
			} else {
				evOf[id] = b.Read(0, event.Location(loc), xstate(loc), event.XRW, label)
			}
			b.RF(top, evOf[id])
		case n.IsStore():
			if transient {
				evOf[id] = b.TransientWrite(0, event.Location(loc), xstate(loc), event.XRW, label)
			} else {
				evOf[id] = b.Write(0, event.Location(loc), xstate(loc), event.XRW, label)
				b.CO(top, evOf[id])
			}
		case n.IsBranch():
			if !transient {
				evOf[id] = b.Branch(0, label)
			}
		case n.IsFence():
			if !transient && n.Instr.Sub == "lfence" {
				evOf[id] = b.Fence(0, label)
			}
		}
	}

	// Architectural prefix in topological order, then the transient window
	// (tfo extends past the branch), matching §3.3's per-thread fetch order.
	for _, id := range res.Graph.Topo() {
		if arch[id] && !trans[id] {
			// Transient nodes that are also on the architectural path
			// appear once, architecturally.
			emit(id, false)
		}
	}
	for _, id := range res.Graph.Topo() {
		if trans[id] {
			emit(id, true)
		}
	}
	bot := b.Bottom(0)

	// Dependencies: address deps from def chains into address operands,
	// data deps into stored values, ctrl deps from branch conditions.
	// Walked in topological order, not evOf map order, so edge insertion —
	// and with it the rendered DOT — is deterministic across runs.
	for _, id := range res.Graph.Topo() {
		ev, ok := evOf[id]
		if !ok || ev == nil {
			continue
		}
		n := res.Graph.Nodes[id]
		if n.Instr == nil {
			continue
		}
		if n.IsLoad() || n.IsStore() {
			for _, src := range loadsFeeding(res.Graph, addrDefs(n)) {
				if sev, ok := evOf[src]; ok && sev != nil && sev != ev {
					b.AddrDep(sev, ev, true)
				}
			}
		}
		if n.IsStore() && len(n.ArgDefs) > 0 {
			for _, src := range loadsFeeding(res.Graph, n.ArgDefs[0]) {
				if sev, ok := evOf[src]; ok && sev != nil && sev != ev {
					b.DataDep(sev, ev)
				}
			}
		}
	}
	// rfx: the transmitter populates xstate the observer probes.
	if tev, ok := evOf[f.Transmit]; ok && tev != nil {
		b.RFX(top, tev)
		b.RFX(tev, bot)
	}
	g := b.Finish()
	return g, nil
}

// locOf renders a human-readable symbolic location for a memory node.
func locOf(g *acfg.Graph, n *acfg.Node) string {
	var ptr ir.Value
	switch {
	case n.IsLoad():
		ptr = n.Instr.Args[0]
	case n.IsStore():
		ptr = n.Instr.Args[1]
	default:
		return fmt.Sprintf("mem%d", n.ID)
	}
	switch p := ptr.(type) {
	case *ir.Global:
		return p.Nm
	case *ir.Instr:
		if p.Op == ir.OpAlloca {
			return p.Nm
		}
		if p.Op == ir.OpGEP {
			if g, ok := p.Args[0].(*ir.Global); ok {
				return g.Nm + "[i]"
			}
			return fmt.Sprintf("%s[i]", p.Args[0].ValueName())
		}
		return fmt.Sprintf("*%s", p.ValueName())
	}
	return fmt.Sprintf("mem%d", n.ID)
}

// loadsFeeding walks def chains back to the nearest load nodes: the reads
// whose values feed the given definitions (through pure value ops).
func loadsFeeding(g *acfg.Graph, defs []int) []int {
	var out []int
	seen := map[int]bool{}
	stack := append([]int(nil), defs...)
	for len(stack) > 0 {
		d := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[d] {
			continue
		}
		seen[d] = true
		n := g.Nodes[d]
		if n.IsLoad() {
			out = append(out, d)
			continue
		}
		if n.Instr == nil {
			continue
		}
		for _, ds := range n.ArgDefs {
			stack = append(stack, ds...)
		}
	}
	return out
}
