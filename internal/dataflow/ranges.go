package dataflow

import (
	"sync"

	"lcm/internal/ir"
)

// env maps each tracked integer stack slot (alloca) to a bound on its
// current contents. Absent keys mean "any value of the slot's type"; a nil
// env is the unreachable bottom element.
type env map[*ir.Instr]Interval

func cloneEnv(e env) env {
	c := make(env, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

func envEq(a, b env) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		o, ok := b[k]
		if !ok || !v.Eq(o) {
			return false
		}
	}
	return true
}

// RangeAnalysis bounds every integer value in one function with the
// interval domain: a forward fixpoint over tracked stack slots (Clou's
// -O0 IR keeps all locals in slots, so flow-sensitivity over slots is
// where the precision lives), widened at loop heads, then a final pass
// that derives per-instruction intervals from the converged block-entry
// facts.
type RangeAnalysis struct {
	F       *ir.Func
	g       *FuncGraph
	dom     *DomTree
	heads   map[int]bool
	tracked map[*ir.Instr]bool
	val     map[*ir.Instr]Interval
	sol     *Solution[env]
}

type rangeProblem struct{ r *RangeAnalysis }

func (p rangeProblem) Direction() Direction { return Forward }
func (p rangeProblem) Bottom(int) env       { return nil }
func (p rangeProblem) Boundary(int) env     { return make(env) }

func (p rangeProblem) Merge(n int, acc, src env) (env, bool) {
	if src == nil {
		return acc, false
	}
	if acc == nil {
		return cloneEnv(src), true
	}
	joined := make(env)
	for k, a := range acc {
		s, ok := src[k]
		if !ok {
			continue // top in src → top in join
		}
		j := a.Join(s)
		if p.r.heads[n] {
			j = j.Widen(a)
		}
		if isTypedTopOf(j, k) {
			continue // degenerated to top: drop the key
		}
		joined[k] = j
	}
	if envEq(acc, joined) {
		return acc, false
	}
	return joined, true
}

// isTypedTopOf reports that iv carries no information beyond the slot's
// type range (loads force LoadFree off, so the flag adds nothing here).
func isTypedTopOf(iv Interval, slot *ir.Instr) bool {
	return iv.Contains(TypedTop(slotElem(slot)))
}

func slotElem(slot *ir.Instr) ir.Type { return slot.AllocaElem }

func (p rangeProblem) Transfer(n int, in env) env {
	if in == nil {
		return nil
	}
	e := cloneEnv(in)
	vals := map[*ir.Instr]Interval{}
	for _, instr := range p.r.g.Blocks[n].Instrs {
		p.r.step(e, vals, instr)
	}
	return e
}

// NewRangeAnalysis analyzes f (which must have a body).
func NewRangeAnalysis(f *ir.Func) *RangeAnalysis {
	r := &RangeAnalysis{
		F:       f,
		g:       NewFuncGraph(f),
		tracked: map[*ir.Instr]bool{},
		val:     map[*ir.Instr]Interval{},
	}
	r.dom = Dominators(r.g, 0)
	r.heads = LoopHeads(r.g, r.dom)
	for slot := range TrackedSlots(f) {
		if ir.IsInt(slot.AllocaElem) {
			r.tracked[slot] = true
		}
	}
	r.sol = Solve[env](r.g, rangeProblem{r})

	// Final pass: derive per-instruction intervals from the converged
	// block-entry facts. RPO guarantees dominators are processed before
	// dominatees, so cross-block operand lookups in r.val are filled.
	order := ReversePostorder(r.g, 0)
	seen := make([]bool, r.g.Len())
	for _, n := range order {
		seen[n] = true
	}
	for n := 0; n < r.g.Len(); n++ {
		if !seen[n] {
			order = append(order, n)
		}
	}
	for _, n := range order {
		e := r.sol.In[n]
		if e == nil {
			e = make(env)
		} else {
			e = cloneEnv(e)
		}
		for _, instr := range r.g.Blocks[n].Instrs {
			r.step(e, r.val, instr)
		}
	}
	return r
}

// step applies one instruction: slot stores update the env, value-producing
// instructions record their interval in vals.
func (r *RangeAnalysis) step(e env, vals map[*ir.Instr]Interval, in *ir.Instr) {
	switch in.Op {
	case ir.OpStore:
		slot, ok := in.Args[1].(*ir.Instr)
		if !ok || !r.tracked[slot] {
			return // cannot touch tracked slots: their addresses never escape
		}
		v := r.valueIn(in.Args[0], vals)
		v = clampToType(v, slotElem(slot))
		if isTypedTopOf(v, slot) {
			delete(e, slot)
		} else {
			e[slot] = v
		}
	case ir.OpLoad:
		v := TypedTop(in.Ty)
		if slot, ok := in.Args[0].(*ir.Instr); ok && r.tracked[slot] {
			if sv, ok := e[slot]; ok {
				v = sv
			}
		}
		// A load result is never LoadFree: under store bypass it may
		// return stale data, so only the PHT model may trust its bound.
		v.LoadFree = false
		vals[in] = v
	case ir.OpBin:
		vals[in] = binInterval(in.Sub, in.Ty, r.valueIn(in.Args[0], vals), r.valueIn(in.Args[1], vals))
	case ir.OpCmp:
		v := Rng(0, 1)
		v.LoadFree = r.valueIn(in.Args[0], vals).LoadFree && r.valueIn(in.Args[1], vals).LoadFree
		vals[in] = v
	case ir.OpCast:
		vals[in] = castInterval(in.Sub, in.Args[0].Type(), in.Ty, r.valueIn(in.Args[0], vals))
	case ir.OpCall:
		if ir.IsInt(in.Ty) {
			vals[in] = TypedTop(in.Ty)
		}
	}
}

// valueIn bounds operand v given the block-local instruction values
// computed so far.
func (r *RangeAnalysis) valueIn(v ir.Value, vals map[*ir.Instr]Interval) Interval {
	switch v := v.(type) {
	case *ir.Const:
		return constInterval(v)
	case *ir.Param:
		iv := TypedTop(v.Ty)
		iv.LoadFree = true // a register argument, fixed for the activation
		return iv
	case *ir.Instr:
		if iv, ok := vals[v]; ok {
			return iv
		}
		if iv, ok := r.val[v]; ok {
			return iv
		}
		return TypedTop(v.Type())
	case *ir.Global:
		iv := Top()
		iv.LoadFree = true
		return iv
	}
	return Top()
}

// ValueRange returns the converged bound for an instruction's result.
func (r *RangeAnalysis) ValueRange(in *ir.Instr) Interval {
	if iv, ok := r.val[in]; ok {
		return iv
	}
	return TypedTop(in.Ty)
}

// AddrInfo is a resolved memory address: a base object plus a byte-offset
// bound. Exactly one of Global/Slot is set when Known.
type AddrInfo struct {
	Global *ir.Global
	Slot   *ir.Instr // an alloca
	Off    Interval
	Known  bool
}

// Addr resolves a pointer value through direct GEP/fieldgep/bitcast chains
// to a base object with a byte-offset interval. Pointers that pass through
// memory or integer arithmetic are not resolved.
func (r *RangeAnalysis) Addr(v ir.Value) AddrInfo {
	switch v := v.(type) {
	case *ir.Global:
		return AddrInfo{Global: v, Off: Point(0), Known: true}
	case *ir.Instr:
		switch v.Op {
		case ir.OpAlloca:
			return AddrInfo{Slot: v, Off: Point(0), Known: true}
		case ir.OpGEP:
			base := r.Addr(v.Args[0])
			if !base.Known {
				return AddrInfo{}
			}
			elem := ir.Elem(v.Args[0].Type())
			if elem == nil {
				return AddrInfo{}
			}
			idx := r.valueIn(v.Args[1], nil)
			idx = gepIndexRange(v.Args[1].Type(), idx)
			base.Off = base.Off.AddIv(idx.ScaleConst(int64(elem.Size())))
			return base
		case ir.OpFieldGEP:
			base := r.Addr(v.Args[0])
			if !base.Known {
				return AddrInfo{}
			}
			st, ok := ir.Elem(v.Args[0].Type()).(*ir.StructType)
			if !ok {
				return AddrInfo{}
			}
			fld, ok := st.Field(v.Field)
			if !ok {
				return AddrInfo{}
			}
			base.Off = base.Off.AddConst(int64(fld.Offset))
			return base
		case ir.OpCast:
			if v.Sub == "bitcast" && ir.IsPtr(v.Ty) {
				return r.Addr(v.Args[0])
			}
		}
	}
	return AddrInfo{}
}

// gepIndexRange adjusts an index interval for the interpreter's signed
// reinterpretation: a 64-bit value ≥ 2^63 indexes negatively, so an
// unsigned-64 bound that may exceed MaxInt64 loses its floor too.
func gepIndexRange(ty ir.Type, iv Interval) Interval {
	if it, ok := ty.(ir.IntType); ok && it.Bits == 64 && it.Unsigned && iv.HiUnb {
		iv.LoUnb = true
	}
	return iv
}

// Extent is one load's or store's footprint: its address resolved to a
// base object and byte-offset interval, the access width, and the base
// object's byte size (0 when the address is unresolved). Both range rules
// decide on extents, and their certificates record them.
type Extent struct {
	Addr   AddrInfo
	Width  int
	Object int
}

// Extent resolves a load's or store's footprint; ok is false for any
// other instruction.
func (r *RangeAnalysis) Extent(in *ir.Instr) (e Extent, ok bool) {
	var addr ir.Value
	switch in.Op {
	case ir.OpLoad:
		addr, e.Width = in.Args[0], in.Ty.Size()
	case ir.OpStore:
		addr, e.Width = in.Args[1], in.Args[0].Type().Size()
	default:
		return Extent{}, false
	}
	e.Addr = r.Addr(addr)
	switch {
	case e.Addr.Global != nil:
		e.Object = e.Addr.Global.Elem.Size()
	case e.Addr.Slot != nil:
		e.Object = e.Addr.Slot.AllocaElem.Size()
	}
	return e, true
}

// InBounds reports whether the access provably stays inside its base
// object for every value the analysis admits — in which case even a
// mispredicted execution of it cannot read outside the object.
func (e Extent) InBounds() bool {
	off := e.Addr.Off
	if !e.Addr.Known || !off.Bounded() || off.Lo < 0 {
		return false
	}
	end, ok := addOv(off.Hi, int64(e.Width))
	return ok && end <= int64(e.Object)
}

// Disjoint reports whether a store's and a load's extents provably cover
// disjoint bytes of one base object, using only LoadFree offset bounds —
// bounds that hold even when earlier stores are bypassed, which is what
// Clou-stl's transient reordering requires. Alias facts across objects
// are untrusted transiently (§5.2), so distinct bases are never disjoint.
// The extents may come from different functions (an inline boundary of
// the A-CFG): a slot belongs to one function, so only a global is then a
// shared base.
func Disjoint(s, l Extent) bool {
	a, b := s.Addr.Off, l.Addr.Off
	sameBase := (s.Addr.Global != nil && s.Addr.Global == l.Addr.Global) ||
		(s.Addr.Slot != nil && s.Addr.Slot == l.Addr.Slot)
	if !sameBase || !a.LoadFree || !b.LoadFree || !a.Bounded() || !b.Bounded() {
		return false
	}
	sEnd, ok1 := addOv(a.Hi, int64(s.Width))
	lEnd, ok2 := addOv(b.Hi, int64(l.Width))
	return ok1 && ok2 && (sEnd <= b.Lo || lEnd <= a.Lo)
}

// ModuleRanges lazily computes per-function range analyses for a module.
type ModuleRanges struct {
	M *ir.Module
	// mu guards the lazily filled byFn memo: one ModuleRanges (via the
	// detect analysis cache's shared Pruner) may serve many concurrent
	// per-function analyses. RangeAnalysis itself is immutable once built
	// and its query methods are read-only, so only the memo needs a lock.
	mu   sync.Mutex
	byFn map[*ir.Func]*RangeAnalysis
}

// NewModuleRanges wraps m.
func NewModuleRanges(m *ir.Module) *ModuleRanges {
	return &ModuleRanges{M: m, byFn: map[*ir.Func]*RangeAnalysis{}}
}

// ForFunc returns (computing on first use) the analysis for f. Safe for
// concurrent use.
func (mr *ModuleRanges) ForFunc(f *ir.Func) *RangeAnalysis {
	if f == nil || f.IsDecl() {
		return nil
	}
	mr.mu.Lock()
	defer mr.mu.Unlock()
	if r, ok := mr.byFn[f]; ok {
		return r
	}
	r := NewRangeAnalysis(f)
	mr.byFn[f] = r
	return r
}

// ForInstr returns the analysis of the function containing in (instrs keep
// a parent-block link, and blocks their parent function — this also works
// for A-CFG nodes of inlined callees, which share instruction pointers).
func (mr *ModuleRanges) ForInstr(in *ir.Instr) *RangeAnalysis {
	if in == nil || in.Blk == nil {
		return nil
	}
	return mr.ForFunc(in.Blk.Fn)
}

// Extent resolves a load's or store's footprint in the analysis of its
// own function; ok is false for any other instruction.
func (mr *ModuleRanges) Extent(in *ir.Instr) (Extent, bool) {
	r := mr.ForInstr(in)
	if r == nil {
		return Extent{}, false
	}
	return r.Extent(in)
}
