package dataflow_test

import (
	"strings"
	"testing"

	"lcm/internal/cryptolib"
	"lcm/internal/dataflow"
	"lcm/internal/ir"
	"lcm/internal/litmus"
)

// TestVerifyCorpus runs the SSA verifier over every program in the repo's
// two corpora: all litmus cases and all cryptolib libraries. Lowering
// already verifies internally; this regression test keeps that property
// pinned even if the lower-time hook is ever removed.
func TestVerifyCorpus(t *testing.T) {
	for _, c := range litmus.All() {
		m := compile(t, c.Source)
		if err := dataflow.VerifyModule(m); err != nil {
			t.Errorf("litmus %s/%s: %v", c.Suite, c.Name, err)
		}
	}
	for _, lib := range cryptolib.All() {
		m := compile(t, lib.Source)
		if err := dataflow.VerifyModule(m); err != nil {
			t.Errorf("cryptolib %s: %v", lib.Name, err)
		}
	}
}

// emptyRetFunc builds `func name() void { entry: ret }` in m.
func emptyRetFunc(m *ir.Module, name string) *ir.Func {
	f := &ir.Func{Nm: name, Ret: ir.Void}
	m.Funcs = append(m.Funcs, f)
	b := f.NewBlock("entry")
	f.Append(b, &ir.Instr{Op: ir.OpRet})
	return f
}

func wantErr(t *testing.T, m *ir.Module, frag string) {
	t.Helper()
	err := dataflow.VerifyModule(m)
	if err == nil {
		t.Fatalf("verifier accepted broken IR, want error containing %q", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error = %q, want it to contain %q", err, frag)
	}
}

func TestVerifyRejectsUnterminatedBlock(t *testing.T) {
	m := ir.NewModule()
	f := &ir.Func{Nm: "f", Ret: ir.Void}
	m.Funcs = append(m.Funcs, f)
	b := f.NewBlock("entry")
	f.Append(b, &ir.Instr{Op: ir.OpAlloca, Ty: ir.Ptr(ir.U8), AllocaElem: ir.U8})
	wantErr(t, m, "not terminated")
}

func TestVerifyRejectsUseBeforeDef(t *testing.T) {
	m := ir.NewModule()
	f := &ir.Func{Nm: "f", Ret: ir.Void}
	m.Funcs = append(m.Funcs, f)
	b := f.NewBlock("entry")
	slot := &ir.Instr{Op: ir.OpAlloca, Ty: ir.Ptr(ir.U8), AllocaElem: ir.U8}
	// The load appears before the alloca it reads from.
	f.Append(b, &ir.Instr{Op: ir.OpLoad, Ty: ir.U8, Args: []ir.Value{slot}})
	f.Append(b, slot)
	f.Append(b, &ir.Instr{Op: ir.OpRet})
	wantErr(t, m, "before its definition")
}

func TestVerifyRejectsNonDominatingDef(t *testing.T) {
	// entry: condbr %c, then, join;  then: %x = load; br join;
	// join: store %x  — %x does not dominate the join.
	m := ir.NewModule()
	f := &ir.Func{Nm: "f", Ret: ir.Void, Params: []*ir.Param{{Nm: "c", Ty: ir.U8}}}
	m.Funcs = append(m.Funcs, f)
	entry := f.NewBlock("entry")
	then := f.NewBlock("then")
	join := f.NewBlock("join")
	slot := f.Append(entry, &ir.Instr{Op: ir.OpAlloca, Ty: ir.Ptr(ir.U8), AllocaElem: ir.U8})
	f.Append(entry, &ir.Instr{Op: ir.OpCondBr, Args: []ir.Value{f.Params[0]}, Then: then, Else: join})
	x := f.Append(then, &ir.Instr{Op: ir.OpLoad, Ty: ir.U8, Args: []ir.Value{slot}})
	f.Append(then, &ir.Instr{Op: ir.OpBr, Then: join})
	f.Append(join, &ir.Instr{Op: ir.OpStore, Args: []ir.Value{x, slot}})
	f.Append(join, &ir.Instr{Op: ir.OpRet})
	wantErr(t, m, "does not dominate")
}

func TestVerifyRejectsForeignBranchTarget(t *testing.T) {
	m := ir.NewModule()
	other := &ir.Func{Nm: "other", Ret: ir.Void}
	foreign := other.NewBlock("entry")
	other.Append(foreign, &ir.Instr{Op: ir.OpRet})
	m.Funcs = append(m.Funcs, other)

	f := &ir.Func{Nm: "f", Ret: ir.Void}
	m.Funcs = append(m.Funcs, f)
	b := f.NewBlock("entry")
	f.Append(b, &ir.Instr{Op: ir.OpBr, Then: foreign})
	wantErr(t, m, "foreign block")
}

func TestVerifyRejectsTypeMismatches(t *testing.T) {
	// A 4-byte store into a 1-byte slot.
	m := ir.NewModule()
	f := &ir.Func{Nm: "f", Ret: ir.Void}
	m.Funcs = append(m.Funcs, f)
	b := f.NewBlock("entry")
	slot := f.Append(b, &ir.Instr{Op: ir.OpAlloca, Ty: ir.Ptr(ir.U8), AllocaElem: ir.U8})
	f.Append(b, &ir.Instr{Op: ir.OpStore, Args: []ir.Value{ir.ConstInt(ir.U32, 7), slot}})
	f.Append(b, &ir.Instr{Op: ir.OpRet})
	wantErr(t, m, "store size mismatch")

	// A binary op whose operand width differs from its result.
	m2 := ir.NewModule()
	f2 := &ir.Func{Nm: "g", Ret: ir.Void}
	m2.Funcs = append(m2.Funcs, f2)
	b2 := f2.NewBlock("entry")
	f2.Append(b2, &ir.Instr{Op: ir.OpBin, Sub: "add", Ty: ir.U32,
		Args: []ir.Value{ir.ConstInt(ir.U8, 1), ir.ConstInt(ir.U32, 2)}})
	f2.Append(b2, &ir.Instr{Op: ir.OpRet})
	wantErr(t, m2, "want width")

	// A load and a store moving a whole array through a register: the
	// sizes agree, but only integers and pointers are loaded and stored.
	arr := ir.ArrayType{Elem: ir.U8, N: 4}
	for _, tc := range []struct {
		op   ir.Op
		frag string
	}{{ir.OpLoad, "load of non-scalar"}, {ir.OpStore, "store of non-scalar"}} {
		m3 := ir.NewModule()
		f3 := &ir.Func{Nm: "h", Ret: ir.Void}
		m3.Funcs = append(m3.Funcs, f3)
		b3 := f3.NewBlock("entry")
		slot := f3.Append(b3, &ir.Instr{Op: ir.OpAlloca, Ty: ir.Ptr(arr), AllocaElem: arr})
		if tc.op == ir.OpLoad {
			f3.Append(b3, &ir.Instr{Op: ir.OpLoad, Ty: arr, Args: []ir.Value{slot}})
		} else {
			f3.Append(b3, &ir.Instr{Op: ir.OpStore, Args: []ir.Value{ir.ConstInt(arr, 0), slot}})
		}
		f3.Append(b3, &ir.Instr{Op: ir.OpRet})
		wantErr(t, m3, tc.frag)
	}
}

func TestVerifyPhi(t *testing.T) {
	// A well-formed diamond phi must pass; dropping one incoming entry
	// must fail.
	build := func(breakArity bool) *ir.Module {
		m := ir.NewModule()
		f := &ir.Func{Nm: "f", Ret: ir.U8, Params: []*ir.Param{{Nm: "c", Ty: ir.U8}}}
		m.Funcs = append(m.Funcs, f)
		entry := f.NewBlock("entry")
		then := f.NewBlock("then")
		els := f.NewBlock("else")
		join := f.NewBlock("join")
		f.Append(entry, &ir.Instr{Op: ir.OpCondBr, Args: []ir.Value{f.Params[0]}, Then: then, Else: els})
		a := f.Append(then, &ir.Instr{Op: ir.OpBin, Sub: "add", Ty: ir.U8,
			Args: []ir.Value{ir.ConstInt(ir.U8, 1), ir.ConstInt(ir.U8, 1)}})
		f.Append(then, &ir.Instr{Op: ir.OpBr, Then: join})
		bv := f.Append(els, &ir.Instr{Op: ir.OpBin, Sub: "add", Ty: ir.U8,
			Args: []ir.Value{ir.ConstInt(ir.U8, 2), ir.ConstInt(ir.U8, 2)}})
		f.Append(els, &ir.Instr{Op: ir.OpBr, Then: join})
		phi := &ir.Instr{Op: ir.OpPhi, Ty: ir.U8,
			Args: []ir.Value{a, bv}, Incoming: []*ir.Block{then, els}}
		if breakArity {
			phi.Args = phi.Args[:1]
			phi.Incoming = phi.Incoming[:1]
		}
		f.Append(join, phi)
		f.Append(join, &ir.Instr{Op: ir.OpRet, Args: []ir.Value{phi}})
		return m
	}
	if err := dataflow.VerifyModule(build(false)); err != nil {
		t.Fatalf("well-formed phi rejected: %v", err)
	}
	wantErr(t, build(true), "predecessors")
}

func TestVerifyRejectsPhiAfterNonPhi(t *testing.T) {
	m := ir.NewModule()
	f := &ir.Func{Nm: "f", Ret: ir.Void}
	m.Funcs = append(m.Funcs, f)
	b := f.NewBlock("entry")
	f.Append(b, &ir.Instr{Op: ir.OpAlloca, Ty: ir.Ptr(ir.U8), AllocaElem: ir.U8})
	f.Append(b, &ir.Instr{Op: ir.OpPhi, Ty: ir.U8})
	f.Append(b, &ir.Instr{Op: ir.OpRet})
	wantErr(t, m, "after non-phi")
}

func TestVerifyAcceptsMinimal(t *testing.T) {
	m := ir.NewModule()
	emptyRetFunc(m, "ok")
	if err := dataflow.VerifyModule(m); err != nil {
		t.Fatalf("minimal function rejected: %v", err)
	}
}
