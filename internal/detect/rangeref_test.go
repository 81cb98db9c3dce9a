package detect

// The range rules against the code they replaced. Each rule used to be
// written out three times: a bool-returning decision in dataflow
// (RangeAnalysis.InBounds, RangeAnalysis.DisjointRanges plus the
// pruner's cross-inline tail), a certificate mirror in presolve
// (CertInBounds, CertDisjoint) that re-resolved the address and re-ran
// the arithmetic, and the -why renderer. The decisions and the mirror are
// kept here as the reference: the pruner's extent-returning rules must
// make the same decision on every access and every forwarding pair, and
// the certificate built from their facts must equal the mirror's.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"lcm/internal/acfg"
	"lcm/internal/aeg"
	"lcm/internal/dataflow"
	"lcm/internal/ir"
	"lcm/internal/presolve"
)

// refAddOv is dataflow's overflow-checked addition.
func refAddOv(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

// refAccess is the old accessAddrAndSize: a load's or store's address
// operand and access width.
func refAccess(in *ir.Instr) (ir.Value, int, bool) {
	switch in.Op {
	case ir.OpLoad:
		return in.Args[0], in.Ty.Size(), true
	case ir.OpStore:
		return in.Args[1], in.Args[0].Type().Size(), true
	}
	return nil, 0, false
}

// refObjectSize is presolve's objectSize.
func refObjectSize(ai dataflow.AddrInfo) int {
	switch {
	case ai.Global != nil:
		return ai.Global.Elem.Size()
	case ai.Slot != nil:
		return ai.Slot.AllocaElem.Size()
	}
	return 0
}

// refInBounds is RangeAnalysis.InBounds.
func refInBounds(r *dataflow.RangeAnalysis, in *ir.Instr) bool {
	addr, size, ok := refAccess(in)
	if !ok {
		return false
	}
	ai := r.Addr(addr)
	if !ai.Known || !ai.Off.Bounded() || ai.Off.Lo < 0 {
		return false
	}
	var objSize int
	switch {
	case ai.Global != nil:
		objSize = ai.Global.Elem.Size()
	case ai.Slot != nil:
		objSize = ai.Slot.AllocaElem.Size()
	default:
		return false
	}
	end, ok := refAddOv(ai.Off.Hi, int64(size))
	return ok && end <= int64(objSize)
}

// refDisjointOffsets is the byte-disjointness test the same-function and
// cross-inline cases each spelled out.
func refDisjointOffsets(as, al dataflow.AddrInfo, sw, lw int) bool {
	if !as.Off.LoadFree || !al.Off.LoadFree || !as.Off.Bounded() || !al.Off.Bounded() {
		return false
	}
	sEnd, ok1 := refAddOv(as.Off.Hi, int64(sw))
	lEnd, ok2 := refAddOv(al.Off.Hi, int64(lw))
	if !ok1 || !ok2 {
		return false
	}
	return sEnd <= al.Off.Lo || lEnd <= as.Off.Lo
}

// refDisjointPair is Pruner.DisjointPair with RangeAnalysis.DisjointRanges
// inlined: within one function the two addresses must share a global or
// a slot; across an inline boundary, a global.
func refDisjointPair(mr *dataflow.ModuleRanges, s, l *ir.Instr) bool {
	if s == nil || l == nil || s.Op != ir.OpStore || l.Op != ir.OpLoad {
		return false
	}
	rs, rl := mr.ForInstr(s), mr.ForInstr(l)
	if rs == nil || rl == nil {
		return false
	}
	as, al := rs.Addr(s.Args[1]), rl.Addr(l.Args[0])
	if !as.Known || !al.Known {
		return false
	}
	sw, lw := s.Args[0].Type().Size(), l.Ty.Size()
	if rs == rl {
		sameBase := (as.Global != nil && as.Global == al.Global) ||
			(as.Slot != nil && as.Slot == al.Slot)
		return sameBase && refDisjointOffsets(as, al, sw, lw)
	}
	return as.Global != nil && as.Global == al.Global && refDisjointOffsets(as, al, sw, lw)
}

// refBaseName is presolve's baseName.
func refBaseName(a dataflow.AddrInfo) string {
	switch {
	case a.Global != nil:
		return "global:" + a.Global.Nm
	case a.Slot != nil:
		return "alloca:" + a.Slot.Nm
	}
	return ""
}

// refCertInBounds is presolve's CertInBounds: it re-resolves the access
// and re-runs the in-bounds arithmetic in its own form.
func refCertInBounds(fn string, mr *dataflow.ModuleRanges, n *acfg.Node) (*presolve.Certificate, bool) {
	r := mr.ForInstr(n.Instr)
	addr, w, ok := refAccess(n.Instr)
	if r == nil || !ok {
		return nil, false
	}
	ai := r.Addr(addr)
	if !ai.Known || !ai.Off.Bounded() || ai.Off.Lo < 0 {
		return nil, false
	}
	obj := refObjectSize(ai)
	if obj <= 0 || w <= 0 || ai.Off.Hi > int64(obj)-int64(w) {
		return nil, false
	}
	return &presolve.Certificate{
		Kind: presolve.KindInBounds,
		Fn:   fn,
		Key:  fmt.Sprintf("in-bounds|n=%d", n.ID),
		InBounds: &presolve.BoundsFact{
			Access: n.ID, Line: n.Instr.Line, Base: refBaseName(ai),
			Lo: ai.Off.Lo, Hi: ai.Off.Hi, Width: w, Object: obj,
		},
	}, true
}

// refCertDisjoint is presolve's CertDisjoint.
func refCertDisjoint(fn string, mr *dataflow.ModuleRanges, s, l *acfg.Node) (*presolve.Certificate, bool) {
	if !s.IsStore() || !l.IsLoad() {
		return nil, false
	}
	rs, rl := mr.ForInstr(s.Instr), mr.ForInstr(l.Instr)
	if rs == nil || rl == nil {
		return nil, false
	}
	as, al := rs.Addr(s.Instr.Args[1]), rl.Addr(l.Instr.Args[0])
	if !as.Known || !al.Known {
		return nil, false
	}
	sameBase := (as.Global != nil && as.Global == al.Global) ||
		(rs == rl && as.Slot != nil && as.Slot == al.Slot)
	if !sameBase {
		return nil, false
	}
	sw, lw := s.Instr.Args[0].Type().Size(), l.Instr.Ty.Size()
	if sw <= 0 || lw <= 0 || !refDisjointOffsets(as, al, sw, lw) {
		return nil, false
	}
	return &presolve.Certificate{
		Kind: presolve.KindDisjoint,
		Fn:   fn,
		Key:  fmt.Sprintf("stl-disjoint|s=%d|l=%d", s.ID, l.ID),
		Disjoint: &presolve.DisjointFact{
			Store: s.ID, Load: l.ID, Base: refBaseName(as),
			StoreLo: as.Off.Lo, StoreHi: as.Off.Hi, StoreWidth: sw,
			LoadLo: al.Off.Lo, LoadHi: al.Off.Hi, LoadWidth: lw,
			LoadFree: true,
		},
	}, true
}

// checkRangeFacts requires, for one function of m, that the pruner's
// in-bounds rule decide every load and store as refInBounds does and its
// disjoint rule every (store, load) pair of the forwarding engines' walk
// — each store's LSQ row, under default bounds — as refDisjointPair does;
// and that each certificate built from the pruner's facts equal the
// mirror's and pass Check. It returns the number of in-bounds and
// disjoint decisions.
func checkRangeFacts(t testing.TB, label string, m *ir.Module, fn string) (inBounds, disjoint int) {
	t.Helper()
	fe, err := buildFrontend(m, fn, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	pruner := dataflow.NewPruner(m)
	mr := pruner.Ranges()
	a := aeg.Build(fe.g, fe.al, aeg.Options{})
	ps := presolve.NewAnalysis(presolve.NewFacts(fe.g, fe.al, mr), a)
	d := &detector{ctx: context.Background(), g: fe.g, a: a, res: &Result{}}
	d.indexNodes()

	same := func(what string, got, want *presolve.Certificate) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s: certificate %s, mirror %s", label, what, got, want)
		}
		if err := got.Check(); err != nil {
			t.Fatalf("%s: %s: certificate fails Check: %v", label, what, err)
		}
	}
	for _, n := range fe.g.Nodes {
		if (!n.IsLoad() && !n.IsStore()) || n.Instr == nil {
			continue
		}
		e, got := pruner.InBoundsAccess(n.Instr)
		r := mr.ForInstr(n.Instr)
		if want := r != nil && refInBounds(r, n.Instr); got != want {
			t.Fatalf("%s: access %d: in-bounds %v, reference %v", label, n.ID, got, want)
		}
		if !got {
			continue
		}
		inBounds++
		want, ok := refCertInBounds(fe.g.Fn, mr, n)
		if !ok {
			t.Fatalf("%s: access %d: pruned in-bounds, but the mirror derives no certificate", label, n.ID)
		}
		same(fmt.Sprintf("access %d", n.ID), ps.InBoundsCert(n, e), want)
	}
	for _, s := range d.stores {
		for _, l := range d.loads {
			if !d.near(s).Has(l.ID) {
				continue
			}
			se, le, got := pruner.DisjointPair(s.Instr, l.Instr)
			if want := refDisjointPair(mr, s.Instr, l.Instr); got != want {
				t.Fatalf("%s: store %d / load %d: disjoint %v, reference %v", label, s.ID, l.ID, got, want)
			}
			if !got {
				continue
			}
			disjoint++
			want, ok := refCertDisjoint(fe.g.Fn, mr, s, l)
			if !ok {
				t.Fatalf("%s: store %d / load %d: pruned disjoint, but the mirror derives no certificate", label, s.ID, l.ID)
			}
			same(fmt.Sprintf("store %d / load %d", s.ID, l.ID), ps.DisjointCert(s, l, se, le), want)
		}
	}
	return inBounds, disjoint
}
