package dataflow_test

import (
	"testing"

	"lcm/internal/dataflow"
	"lcm/internal/ir"
)

// globalAccesses returns f's loads (or stores) whose address resolves to
// the named global, in program order.
func globalAccesses(r *dataflow.RangeAnalysis, f *ir.Func, op ir.Op, global string) []*ir.Instr {
	var out []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != op {
				continue
			}
			addr := in.Args[0]
			if op == ir.OpStore {
				addr = in.Args[1]
			}
			if ai := r.Addr(addr); ai.Known && ai.Global != nil && ai.Global.Nm == global {
				out = append(out, in)
			}
		}
	}
	return out
}

// inBounds is the pruner's in-bounds rule on one access of r's function.
func inBounds(r *dataflow.RangeAnalysis, in *ir.Instr) bool {
	e, ok := r.Extent(in)
	return ok && e.InBounds()
}

func TestRangeMaskedIndexInBounds(t *testing.T) {
	m := compile(t, `
uint8_t table[32];
uint8_t probe[131072];
uint8_t out;
void reader(uint32_t i) {
	out = table[i & 31];
	out = probe[i];
}
`)
	f := fn(t, m, "reader")
	r := dataflow.NewRangeAnalysis(f)

	// The masked index is provably in [0, 31].
	var mask *ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpBin && in.Sub == "and" {
				mask = in
			}
		}
	}
	if mask == nil {
		t.Fatal("no and instruction found")
	}
	if iv := r.ValueRange(mask); !dataflow.Rng(0, 31).Contains(iv) {
		t.Fatalf("range of i & 31 = %v, want within [0,31]", iv)
	}

	tl := globalAccesses(r, f, ir.OpLoad, "table")
	if len(tl) != 1 {
		t.Fatalf("got %d loads of table, want 1", len(tl))
	}
	if !inBounds(r, tl[0]) {
		t.Errorf("table[i & 31] must be provably in bounds of the 32-byte table")
	}

	pl := globalAccesses(r, f, ir.OpLoad, "probe")
	if len(pl) != 1 {
		t.Fatalf("got %d loads of probe, want 1", len(pl))
	}
	if inBounds(r, pl[0]) {
		t.Errorf("probe[i] with unbounded u32 i must not be provably in bounds")
	}
}

func TestRangeWideningTerminates(t *testing.T) {
	m := compile(t, `
uint8_t st[8];
void spin(uint32_t n) {
	uint32_t i = 0;
	while (i < n) {
		st[i & 7] = 1;
		i += 1;
	}
}
`)
	f := fn(t, m, "spin")
	r := dataflow.NewRangeAnalysis(f) // must converge despite the growing counter
	ss := globalAccesses(r, f, ir.OpStore, "st")
	if len(ss) != 1 {
		t.Fatalf("got %d stores to st, want 1", len(ss))
	}
	if !inBounds(r, ss[0]) {
		t.Errorf("st[i & 7] must stay provably in bounds across widening")
	}
}

func TestRangeFlowSensitivity(t *testing.T) {
	// The bound on the slot holds only on paths after the masking store.
	m := compile(t, `
uint8_t buf[16];
uint8_t out;
void flow(uint32_t i) {
	uint32_t j = i;
	j = j & 15;
	out = buf[j];
}
`)
	f := fn(t, m, "flow")
	r := dataflow.NewRangeAnalysis(f)
	ld := globalAccesses(r, f, ir.OpLoad, "buf")
	if len(ld) != 1 || !inBounds(r, ld[0]) {
		t.Errorf("buf[j] after j &= 15 must be in bounds (loads=%d)", len(ld))
	}
}

func TestDisjointRanges(t *testing.T) {
	m := compile(t, `
uint64_t arr[8];
uint64_t brr[8];
uint64_t g;
uint64_t vdst;
void pair(uint64_t v) {
	arr[0] = v;
	vdst = arr[1];
}
void overlap(uint64_t v) {
	arr[0] = v;
	vdst = arr[0];
}
void crossobj(uint64_t v) {
	arr[0] = v;
	vdst = brr[1];
}
void loaded(uint64_t v) {
	uint64_t j = g & 1;
	arr[0] = v;
	vdst = arr[j + 1];
}
`)
	check := func(name string, want bool, why string) {
		t.Helper()
		f := fn(t, m, name)
		r := dataflow.NewRangeAnalysis(f)
		ss := globalAccesses(r, f, ir.OpStore, "arr")
		var ld []*ir.Instr
		for _, gl := range []string{"arr", "brr"} {
			ld = append(ld, globalAccesses(r, f, ir.OpLoad, gl)...)
		}
		if len(ss) != 1 || len(ld) != 1 {
			t.Fatalf("%s: got %d stores / %d array loads, want 1/1", name, len(ss), len(ld))
		}
		se, _ := r.Extent(ss[0])
		le, _ := r.Extent(ld[0])
		if got := dataflow.Disjoint(se, le); got != want {
			t.Errorf("%s: Disjoint = %v, want %v (%s)", name, got, want, why)
		}
	}
	check("pair", true, "constant offsets 0 and 8 of the same array")
	check("overlap", false, "identical offsets overlap")
	check("crossobj", false, "different base objects are never trusted transiently")
	check("loaded", false, "the load's index passed through memory, so its bound is not bypass-proof")
}

func TestModuleRanges(t *testing.T) {
	m := compile(t, `
uint8_t table[32];
uint8_t out;
void reader(uint32_t i) {
	out = table[i & 31];
}
`)
	mr := dataflow.NewModuleRanges(m)
	f := fn(t, m, "reader")
	r := mr.ForFunc(f)
	if r == nil {
		t.Fatal("ForFunc returned nil for a defined function")
	}
	if mr.ForFunc(f) != r {
		t.Fatal("ForFunc must cache per function")
	}
	ld := globalAccesses(r, f, ir.OpLoad, "table")
	if len(ld) != 1 {
		t.Fatalf("got %d loads of table, want 1", len(ld))
	}
	if mr.ForInstr(ld[0]) != r {
		t.Fatal("ForInstr must resolve through the parent block link")
	}
}
