package lower

import (
	"strings"
	"testing"

	"lcm/internal/ir"
	"lcm/internal/minic"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	f, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m, err := Module(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return m
}

func run(t *testing.T, m *ir.Module, fn string, args ...uint64) uint64 {
	t.Helper()
	ip := ir.NewInterp(m)
	v, err := ip.Call(fn, args...)
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	m := compile(t, `
		int add(int a, int b) { return a + b; }
		int mix(int a, int b) { return (a * 3 - b / 2) % 7; }
		unsigned int ushift(unsigned int x) { return (x << 3) >> 1; }
		int sshift(int x) { return x >> 2; }
	`)
	if got := run(t, m, "add", 2, 40); got != 42 {
		t.Errorf("add = %d", got)
	}
	if got := int32(run(t, m, "mix", 10, 4)); got != 0 {
		t.Errorf("mix = %d", got)
	}
	if got := run(t, m, "ushift", 1); got != 4 {
		t.Errorf("ushift = %d", got)
	}
	if got := int32(run(t, m, "sshift", uint64(0xFFFFFFF0))); got != -4 {
		t.Errorf("sshift = %d", got)
	}
}

func TestControlFlow(t *testing.T) {
	m := compile(t, `
		int sum_to(int n) {
			int s = 0;
			for (int i = 1; i <= n; i++) s += i;
			return s;
		}
		int collatz(int n) {
			int steps = 0;
			while (n != 1) {
				if (n % 2 == 0) n = n / 2;
				else n = 3 * n + 1;
				steps++;
			}
			return steps;
		}
		int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
		int loop_break(int n) {
			int i = 0;
			while (1) { i++; if (i >= n) break; }
			return i;
		}
		int loop_continue(int n) {
			int s = 0;
			for (int i = 0; i < n; i++) { if (i % 2) continue; s += i; }
			return s;
		}
		int dowhile(int n) { int c = 0; do { c++; n--; } while (n > 0); return c; }
	`)
	if got := run(t, m, "sum_to", 10); got != 55 {
		t.Errorf("sum_to = %d", got)
	}
	if got := run(t, m, "collatz", 27); got != 111 {
		t.Errorf("collatz = %d", got)
	}
	if got := run(t, m, "fact", 6); got != 720 {
		t.Errorf("fact = %d", got)
	}
	if got := run(t, m, "loop_break", 5); got != 5 {
		t.Errorf("loop_break = %d", got)
	}
	if got := run(t, m, "loop_continue", 10); got != 20 {
		t.Errorf("loop_continue = %d", got)
	}
	if got := run(t, m, "dowhile", 0); got != 1 {
		t.Errorf("dowhile = %d (body must run once)", got)
	}
}

func TestShortCircuitAndTernary(t *testing.T) {
	m := compile(t, `
		int g = 0;
		int bump(void) { g = g + 1; return 1; }
		int and_sc(int a) { return a && bump(); }
		int or_sc(int a) { return a || bump(); }
		int get_g(void) { return g; }
		int pick(int c, int a, int b) { return c ? a : b; }
	`)
	ip := ir.NewInterp(m)
	v, _ := ip.Call("and_sc", 0)
	if v != 0 {
		t.Error("and_sc(0) != 0")
	}
	g, _ := ip.Call("get_g")
	if g != 0 {
		t.Error("&& did not short-circuit")
	}
	v, _ = ip.Call("or_sc", 1)
	if v != 1 {
		t.Error("or_sc(1) != 1")
	}
	g, _ = ip.Call("get_g")
	if g != 0 {
		t.Error("|| did not short-circuit")
	}
	v, _ = ip.Call("and_sc", 1)
	if v != 1 {
		t.Error("and_sc(1) != 1")
	}
	g, _ = ip.Call("get_g")
	if g != 1 {
		t.Error("&& rhs did not run")
	}
	if got := run(t, m, "pick", 1, 11, 22); got != 11 {
		t.Errorf("pick = %d", got)
	}
	if got := run(t, m, "pick", 0, 11, 22); got != 22 {
		t.Errorf("pick = %d", got)
	}
}

func TestArraysAndPointers(t *testing.T) {
	m := compile(t, `
		int A[8];
		void fill(int n) { for (int i = 0; i < n; i++) A[i] = i * i; }
		int get(int i) { return A[i]; }
		int via_ptr(int i) { int *p = A; p += i; return *p; }
		int swap_test(void) {
			int x = 3, y = 4;
			int *px = &x, *py = &y;
			int t = *px; *px = *py; *py = t;
			return x * 10 + y;
		}
		int two_d(void) {
			int grid[3][4];
			for (int i = 0; i < 3; i++)
				for (int j = 0; j < 4; j++)
					grid[i][j] = i * 4 + j;
			return grid[2][3];
		}
	`)
	ip := ir.NewInterp(m)
	ip.Call("fill", 8)
	for i := uint64(0); i < 8; i++ {
		v, _ := ip.Call("get", i)
		if v != i*i {
			t.Errorf("A[%d] = %d", i, v)
		}
		v, _ = ip.Call("via_ptr", i)
		if v != i*i {
			t.Errorf("via_ptr(%d) = %d", i, v)
		}
	}
	if got := run(t, m, "swap_test"); got != 43 {
		t.Errorf("swap_test = %d", got)
	}
	if got := run(t, m, "two_d"); got != 11 {
		t.Errorf("two_d = %d", got)
	}
}

func TestStructs(t *testing.T) {
	m := compile(t, `
		struct Point { int x; int y; long tag; };
		struct Point P;
		void set(int x, int y) { P.x = x; P.y = y; P.tag = 7; }
		int getx(void) { return P.x; }
		long via_arrow(void) { struct Point *p = &P; return p->tag + p->y; }
	`)
	ip := ir.NewInterp(m)
	ip.Call("set", 5, 9)
	if v, _ := ip.Call("getx"); v != 5 {
		t.Errorf("getx = %d", v)
	}
	if v, _ := ip.Call("via_arrow"); v != 16 {
		t.Errorf("via_arrow = %d", v)
	}
}

// TestStructMemberArraysDecay pins the rvalue of a struct member: an
// array member decays to a pointer to its first element, as an array
// variable or an array element does, and a struct member is used by
// address. Before, `q = s.k` failed with "store size mismatch" and
// `sum(s.k)` passed a loaded [4 x u8] as the u8* argument.
func TestStructMemberArraysDecay(t *testing.T) {
	m := compile(t, `
		struct In { uint32_t a; uint32_t b; };
		struct S { uint8_t k[4]; struct In in; };
		struct S s;
		uint32_t sum(uint8_t *p) { return p[0] + p[1] + p[2] + p[3]; }
		uint32_t inb(struct In *p) { return p->b; }
		void set(void) {
			for (int i = 0; i < 4; i++) s.k[i] = i + 1;
			s.in.b = 40;
		}
		uint8_t second(void) { uint8_t *q = s.k; return q[1]; }
		uint32_t total(void) { return sum(s.k); }
		uint32_t member(void) { return inb(&s.in); }
	`)
	ip := ir.NewInterp(m)
	ip.Call("set")
	for fn, want := range map[string]uint64{"second": 2, "total": 10, "member": 40} {
		if v, err := ip.Call(fn); err != nil || v != want {
			t.Errorf("%s = %d, %v; want %d", fn, v, err, want)
		}
	}
}

func TestTypeConversions(t *testing.T) {
	m := compile(t, `
		uint8_t narrow(uint32_t x) { return (uint8_t)x; }
		int widen_signed(char c) { return c; }
		unsigned int widen_unsigned(uint8_t c) { return c; }
	`)
	if got := run(t, m, "narrow", 0x1FF); got != 0xFF {
		t.Errorf("narrow = %#x", got)
	}
	if got := int32(run(t, m, "widen_signed", 0x80)); got != -128 {
		t.Errorf("widen_signed = %d", got)
	}
	if got := run(t, m, "widen_unsigned", 0x80); got != 128 {
		t.Errorf("widen_unsigned = %d", got)
	}
}

func TestGlobalsInitialization(t *testing.T) {
	m := compile(t, `
		uint32_t magic = 0xDEADBEEF;
		uint8_t table[4] = {10, 20, 30, 40};
		uint32_t get_magic(void) { return magic; }
		int get_table(int i) { return table[i]; }
	`)
	if got := run(t, m, "get_magic"); got != 0xDEADBEEF {
		t.Errorf("magic = %#x", got)
	}
	ip := ir.NewInterp(m)
	for i, want := range []uint64{10, 20, 30, 40} {
		if got, _ := ip.Call("get_table", uint64(i)); got != want {
			t.Errorf("table[%d] = %d", i, got)
		}
	}
}

// teaEncryptGo is the reference TEA implementation (Wheeler & Needham).
func teaEncryptGo(v [2]uint32, k [4]uint32) [2]uint32 {
	v0, v1 := v[0], v[1]
	var sum uint32
	const delta = 0x9E3779B9
	for i := 0; i < 32; i++ {
		sum += delta
		v0 += ((v1 << 4) + k[0]) ^ (v1 + sum) ^ ((v1 >> 5) + k[1])
		v1 += ((v0 << 4) + k[2]) ^ (v0 + sum) ^ ((v0 >> 5) + k[3])
	}
	return [2]uint32{v0, v1}
}

const teaSrc = `
uint32_t V[2];
uint32_t K[4];
void tea_encrypt(void) {
	uint32_t v0 = V[0];
	uint32_t v1 = V[1];
	uint32_t sum = 0;
	uint32_t delta = 0x9E3779B9;
	for (int i = 0; i < 32; i++) {
		sum += delta;
		v0 += ((v1 << 4) + K[0]) ^ (v1 + sum) ^ ((v1 >> 5) + K[1]);
		v1 += ((v0 << 4) + K[2]) ^ (v0 + sum) ^ ((v0 >> 5) + K[3]);
	}
	V[0] = v0;
	V[1] = v1;
}
`

// TestTEADifferential compiles the mini-C TEA cipher and checks it against
// the native Go implementation on many inputs — an end-to-end test of the
// lexer, parser, lowering, and interpreter.
func TestTEADifferential(t *testing.T) {
	m := compile(t, teaSrc)
	ip := ir.NewInterp(m)
	vAddr, _ := ip.GlobalAddr("V")
	kAddr, _ := ip.GlobalAddr("K")

	seed := uint32(0x12345678)
	next := func() uint32 {
		seed = seed*1664525 + 1013904223
		return seed
	}
	for trial := 0; trial < 50; trial++ {
		var v [2]uint32
		var k [4]uint32
		for i := range v {
			v[i] = next()
		}
		for i := range k {
			k[i] = next()
		}
		for i, x := range v {
			ip.Mem.Store(vAddr+uint64(4*i), 4, uint64(x))
		}
		for i, x := range k {
			ip.Mem.Store(kAddr+uint64(4*i), 4, uint64(x))
		}
		ip.Budget = 5_000_000
		if _, err := ip.Call("tea_encrypt"); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := teaEncryptGo(v, k)
		got := [2]uint32{
			uint32(ip.Mem.Load(vAddr, 4)),
			uint32(ip.Mem.Load(vAddr+4, 4)),
		}
		if got != want {
			t.Fatalf("trial %d: got %#x, want %#x", trial, got, want)
		}
	}
}

func TestSpectreV1LoweringShape(t *testing.T) {
	m := compile(t, `
		uint8_t A[16];
		uint8_t B[131072];
		uint32_t size_A = 16;
		uint8_t tmp;
		void victim(uint32_t y) {
			if (y < size_A) {
				uint8_t x = A[y];
				tmp &= B[x * 512];
			}
		}
	`)
	f := m.Func("victim")
	if f == nil {
		t.Fatal("victim missing")
	}
	text := f.String()
	// The -O0 shape: y spilled to a stack slot, gep-based indexing, a
	// conditional branch.
	for _, want := range []string{"alloca", "gep", "condbr", "load"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// Interpreting in-bounds works.
	ip := ir.NewInterp(m)
	if _, err := ip.Call("victim", 3); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterKeywordIgnored(t *testing.T) {
	// §6.1: Clang -O0 disregards register and stores the index to memory
	// anyway; our lowering must do the same (the STL bypass depends on it).
	m := compile(t, `int f(int x) { register int idx = x; return idx + 1; }`)
	text := m.Func("f").String()
	if !strings.Contains(text, "idx.addr") {
		t.Errorf("register variable not spilled to stack:\n%s", text)
	}
}

func TestBuiltins(t *testing.T) {
	m := compile(t, `
		uint8_t a[4] = {1, 2, 3, 4};
		uint8_t b[4] = {1, 2, 3, 5};
		int memcmp(const void *x, const void *y, size_t n);
		void *memset(void *p, int c, size_t n);
		int cmp(void) { return memcmp(a, b, 4); }
		int cmp3(void) { return memcmp(a, b, 3); }
		int set_and_read(void) { memset(a, 9, 4); return a[2]; }
	`)
	ip := ir.NewInterp(m)
	if v, _ := ip.Call("cmp"); int32(v) >= 0 {
		t.Errorf("cmp = %d, want negative", int32(v))
	}
	if v, _ := ip.Call("cmp3"); v != 0 {
		t.Errorf("cmp3 = %d", v)
	}
	if v, _ := ip.Call("set_and_read"); v != 9 {
		t.Errorf("set_and_read = %d", v)
	}
}

func TestVerifierCatchesMalformedIR(t *testing.T) {
	m := compile(t, `int f(int x) { return x; }`)
	f := m.Func("f")
	// Chop the terminator off the entry block.
	entry := f.Entry()
	entry.Instrs = entry.Instrs[:len(entry.Instrs)-1]
	if err := ir.Verify(m); err == nil {
		t.Error("verifier accepted unterminated block")
	}
}

func TestInterpBudget(t *testing.T) {
	m := compile(t, `void spin(void) { while (1) {} }`)
	ip := ir.NewInterp(m)
	ip.Budget = 10_000
	if _, err := ip.Call("spin"); err == nil {
		t.Fatal("infinite loop not caught by budget")
	}
}

func TestUnknownExternReturnsZero(t *testing.T) {
	m := compile(t, `int mystery(int x); int f(void) { return mystery(3) + 7; }`)
	if got := run(t, m, "f"); got != 7 {
		t.Errorf("f = %d", got)
	}
}

func TestCompoundAssignAndIncDec(t *testing.T) {
	m := compile(t, `
		int f(int x) {
			x += 5; x -= 2; x *= 3; x <<= 1; x ^= 1; x |= 4; x &= 0xFF; x %= 100;
			return x;
		}
		int incs(int x) { int a = x++; int b = ++x; return a * 100 + b + x; }
	`)
	// ((((3+5-2)*3)<<1)^1) = 37, |4 = 37|4=37? 37 = 0b100101, |4 → 0b100101 already has 4. ^1: 36^... compute in test directly:
	x := int32(3)
	x += 5
	x -= 2
	x *= 3
	x <<= 1
	x ^= 1
	x |= 4
	x &= 0xFF
	x %= 100
	if got := int32(run(t, m, "f", 3)); got != x {
		t.Errorf("f = %d, want %d", got, x)
	}
	// incs(5): a=5 (post), x=6; ++x → x=7, b=7; return 5*100+7+7 = 514.
	if got := run(t, m, "incs", 5); got != 514 {
		t.Errorf("incs = %d", got)
	}
}

func TestModulePrinting(t *testing.T) {
	m := compile(t, `
		struct S { int a; long b; };
		int g = 5;
		int f(int x) { return x + g; }
	`)
	s := m.String()
	for _, want := range []string{"%S = type", "@g = global", "func @f(", "ret"} {
		if !strings.Contains(s, want) {
			t.Errorf("module print missing %q", want)
		}
	}
}

func TestStructLayout(t *testing.T) {
	st := ir.NewStruct("T", []ir.StructField{
		{Name: "a", Ty: ir.I8},
		{Name: "b", Ty: ir.I32},
		{Name: "c", Ty: ir.I8},
		{Name: "d", Ty: ir.I64},
	})
	fa, _ := st.Field("a")
	fb, _ := st.Field("b")
	fc, _ := st.Field("c")
	fd, _ := st.Field("d")
	if fa.Offset != 0 || fb.Offset != 4 || fc.Offset != 8 || fd.Offset != 16 {
		t.Errorf("offsets = %d %d %d %d", fa.Offset, fb.Offset, fc.Offset, fd.Offset)
	}
	if st.Size() != 24 {
		t.Errorf("size = %d", st.Size())
	}
}
