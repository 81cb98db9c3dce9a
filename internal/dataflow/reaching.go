package dataflow

import (
	"math/bits"

	"lcm/internal/ir"
)

// BitSet is a dense fixed-capacity bit vector, the fact domain for
// reaching definitions.
type BitSet []uint64

// NewBitSet returns an empty set with capacity for n bits.
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Has reports whether bit i is set.
func (s BitSet) Has(i int) bool { return s[i/64]&(1<<uint(i%64)) != 0 }

// Set sets bit i.
func (s BitSet) Set(i int) { s[i/64] |= 1 << uint(i%64) }

// Clear clears bit i.
func (s BitSet) Clear(i int) { s[i/64] &^= 1 << uint(i%64) }

// Clone returns a copy of s.
func (s BitSet) Clone() BitSet {
	c := make(BitSet, len(s))
	copy(c, s)
	return c
}

// UnionInto ors o into s, reporting whether s changed.
func (s BitSet) UnionInto(o BitSet) bool {
	changed := false
	for i := range s {
		if n := s[i] | o[i]; n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// Reset clears every bit in place.
func (s BitSet) Reset() {
	for i := range s {
		s[i] = 0
	}
}

// Empty reports whether no bit is set.
func (s BitSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and o (of equal capacity) hold the same bits.
func (s BitSet) Equal(o BitSet) bool {
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// ForEach calls f with the index of every set bit, in ascending order.
func (s BitSet) ForEach(f func(i int)) {
	for w, word := range s {
		for word != 0 {
			f(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// Intersects reports whether s and o share any set bit.
func (s BitSet) Intersects(o BitSet) bool {
	for i := range s {
		if s[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// ReachingDefs computes which stores may reach each load, at the
// granularity Clou's -O0 IR makes natural: a definition is a store whose
// address is directly an alloca (a stack slot), and slots whose address
// escapes (is passed around, GEP'd, or stored) are excluded — any of
// their stores may reach any of their loads.
type ReachingDefs struct {
	g      *FuncGraph
	defs   []*ir.Instr             // all tracked stores, indexed by bit
	defID  map[*ir.Instr]int       // store → bit
	slotOf map[*ir.Instr]*ir.Instr // tracked store/load → its alloca
	bySlot map[*ir.Instr][]int     // alloca → def bits
	sol    *Solution[BitSet]
}

type reachingProblem struct {
	r *ReachingDefs
}

func (p reachingProblem) Direction() Direction { return Forward }
func (p reachingProblem) Bottom(int) BitSet    { return NewBitSet(len(p.r.defs)) }
func (p reachingProblem) Boundary(int) BitSet  { return NewBitSet(len(p.r.defs)) }

func (p reachingProblem) Merge(_ int, acc, src BitSet) (BitSet, bool) {
	return acc, acc.UnionInto(src)
}

func (p reachingProblem) Transfer(n int, in BitSet) BitSet {
	out := in.Clone()
	for _, instr := range p.r.g.Blocks[n].Instrs {
		p.r.step(out, instr)
	}
	return out
}

// step applies one instruction's kill/gen effect to the fact in place.
func (r *ReachingDefs) step(fact BitSet, instr *ir.Instr) {
	if instr.Op != ir.OpStore {
		return
	}
	id, ok := r.defID[instr]
	if !ok {
		return
	}
	for _, other := range r.bySlot[r.slotOf[instr]] {
		fact.Clear(other)
	}
	fact.Set(id)
}

// NewReachingDefs analyzes f.
func NewReachingDefs(f *ir.Func) *ReachingDefs {
	r := &ReachingDefs{
		g:      NewFuncGraph(f),
		defID:  map[*ir.Instr]int{},
		slotOf: map[*ir.Instr]*ir.Instr{},
		bySlot: map[*ir.Instr][]int{},
	}
	tracked := TrackedSlots(f)
	for _, b := range f.Blocks {
		for _, instr := range b.Instrs {
			var addr ir.Value
			switch instr.Op {
			case ir.OpStore:
				addr = instr.Args[1]
			case ir.OpLoad:
				addr = instr.Args[0]
			default:
				continue
			}
			slot, ok := addr.(*ir.Instr)
			if !ok || slot.Op != ir.OpAlloca || !tracked[slot] {
				continue
			}
			r.slotOf[instr] = slot
			if instr.Op == ir.OpStore {
				id := len(r.defs)
				r.defs = append(r.defs, instr)
				r.defID[instr] = id
				r.bySlot[slot] = append(r.bySlot[slot], id)
			}
		}
	}
	r.sol = Solve[BitSet](r.g, reachingProblem{r})
	return r
}

// TrackedSlots returns f's allocas that are used only as the direct
// address of loads and stores — i.e. whose contents cannot be reached
// through any other pointer. Only these have precise def/use chains.
func TrackedSlots(f *ir.Func) map[*ir.Instr]bool {
	tracked := map[*ir.Instr]bool{}
	for _, b := range f.Blocks {
		for _, instr := range b.Instrs {
			if instr.Op == ir.OpAlloca {
				tracked[instr] = true
			}
		}
	}
	for _, b := range f.Blocks {
		for _, instr := range b.Instrs {
			for i, a := range instr.Args {
				slot, ok := a.(*ir.Instr)
				if !ok || slot.Op != ir.OpAlloca {
					continue
				}
				safe := (instr.Op == ir.OpLoad && i == 0) ||
					(instr.Op == ir.OpStore && i == 1)
				if !safe {
					delete(tracked, slot) // address escapes
				}
			}
		}
	}
	return tracked
}

// Tracked reports whether the given alloca has precise def/use chains.
func (r *ReachingDefs) Tracked(slot *ir.Instr) bool {
	_, ok := r.bySlot[slot]
	if !ok {
		// A slot with no stores at all is still tracked if it passed the
		// escape filter; report via slotOf membership of any access.
		for _, s := range r.slotOf {
			if s == slot {
				return true
			}
		}
	}
	return ok
}

// Defs returns the stores that may reach the given load, or nil if the
// load's slot is not tracked (caller must assume anything).
func (r *ReachingDefs) Defs(load *ir.Instr) []*ir.Instr {
	slot, ok := r.slotOf[load]
	if !ok {
		return nil
	}
	n, ok := r.g.Index[load.Blk]
	if !ok {
		return nil
	}
	fact := r.sol.In[n].Clone()
	for _, instr := range r.g.Blocks[n].Instrs {
		if instr == load {
			break
		}
		r.step(fact, instr)
	}
	var out []*ir.Instr
	for _, id := range r.bySlot[slot] {
		if fact.Has(id) {
			out = append(out, r.defs[id])
		}
	}
	return out
}
