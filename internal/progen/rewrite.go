package progen

import (
	"fmt"

	"lcm/internal/dataflow"
	"lcm/internal/ir"
	"lcm/internal/lower"
	"lcm/internal/minic"
)

// This file implements the metamorphic rewrites: semantics-preserving
// source transformations under which the detector's verdict (per-class
// transmitter counts) must be invariant. Each rewrite takes normalized
// source, returns rewritten normalized source, and reports whether it
// applied — a rewrite that finds no opportunity is not a failure.

// AlphaRename consistently renames the parameters and locals of fn. The
// lowered IR is identical up to slot names, so any verdict change is a
// name-sensitivity bug somewhere in the pipeline.
func AlphaRename(src, fn string) (string, bool, error) {
	f, err := minic.Parse(src)
	if err != nil {
		return "", false, err
	}
	fd := findFunc(f, fn)
	if fd == nil {
		return "", false, fmt.Errorf("no function %q", fn)
	}
	globals := map[string]bool{}
	for _, g := range f.Globals {
		globals[g.Name] = true
	}
	ren := map[string]string{}
	add := func(name string) {
		if name == "" || globals[name] {
			return
		}
		if _, ok := ren[name]; !ok {
			ren[name] = fmt.Sprintf("zzr%d_%s", len(ren), name)
		}
	}
	for _, p := range fd.Params {
		add(p.Name)
	}
	walkStmts(fd.Body, func(s minic.Stmt) {
		if ds, ok := s.(*minic.DeclStmt); ok {
			for _, d := range ds.Decls {
				add(d.Name)
			}
		}
	})
	if len(ren) == 0 {
		return src, false, nil
	}
	for _, p := range fd.Params {
		if nn, ok := ren[p.Name]; ok {
			p.Name = nn
		}
	}
	walkStmts(fd.Body, func(s minic.Stmt) {
		if ds, ok := s.(*minic.DeclStmt); ok {
			for _, d := range ds.Decls {
				if nn, ok := ren[d.Name]; ok {
					d.Name = nn
				}
			}
		}
	})
	walkFuncExprs(fd, func(e minic.Expr) {
		if id, ok := e.(*minic.Ident); ok {
			if nn, ok := ren[id.Name]; ok {
				id.Name = nn
			}
		}
	})
	out, err := normalize(minic.Print(f))
	return out, true, err
}

// deadTemplate is parsed once to steal dead statements from: a fresh
// local that only ever feeds itself. The statements touch no global, no
// array, and no other local, so no address in the program can become
// steered by them and no window can gain a transmitter before the first
// speculation primitive.
const deadTemplate = `uint32_t zz(void) {
	uint32_t zzdead0 = 12345;
	zzdead0 = (zzdead0 ^ 7) + 3;
	uint32_t zzdead1 = 40503;
	zzdead1 = zzdead1 + (zzdead0 & 255);
	return zzdead0;
}`

// InsertDead prepends dead statements to fn's body. The statements are
// inserted before the first real statement — and therefore before every
// speculation primitive — so they can neither open nor extend a window.
func InsertDead(src, fn string) (string, bool, error) {
	f, err := minic.Parse(src)
	if err != nil {
		return "", false, err
	}
	fd := findFunc(f, fn)
	if fd == nil {
		return "", false, fmt.Errorf("no function %q", fn)
	}
	tf, err := minic.Parse(deadTemplate)
	if err != nil {
		return "", false, fmt.Errorf("dead template: %w", err)
	}
	dead := tf.Funcs[0].Body.Stmts[:4]
	fd.Body.Stmts = append(append([]minic.Stmt{}, dead...), fd.Body.Stmts...)
	out, err := normalize(minic.Print(f))
	return out, true, err
}

// ReorderIndependent swaps the first adjacent pair of top-level simple
// statements in fn that are provably independent: their accessed objects
// are disjoint syntactically, and the lowered IR's reaching definitions
// confirm no local-slot def-use crosses between them. Returns applied =
// false when no such pair exists.
func ReorderIndependent(src, fn string) (string, bool, error) {
	f, err := minic.Parse(src)
	if err != nil {
		return "", false, err
	}
	fd := findFunc(f, fn)
	if fd == nil {
		return "", false, fmt.Errorf("no function %q", fn)
	}
	for i := 0; i+1 < len(fd.Body.Stmts); i++ {
		s1, ok1 := fd.Body.Stmts[i].(*minic.ExprStmt)
		s2, ok2 := fd.Body.Stmts[i+1].(*minic.ExprStmt)
		if !ok1 || !ok2 {
			continue
		}
		a1, okA := accessSet(s1)
		a2, okB := accessSet(s2)
		if !okA || !okB || !disjoint(a1, a2) {
			continue
		}
		if !reachingIndependent(src, fn, stmtLines(s1), stmtLines(s2)) {
			continue
		}
		fd.Body.Stmts[i], fd.Body.Stmts[i+1] = fd.Body.Stmts[i+1], fd.Body.Stmts[i]
		out, err := normalize(minic.Print(f))
		return out, true, err
	}
	return src, false, nil
}

// objAccess is one statement's footprint: object names read and written.
type objAccess struct {
	reads, writes map[string]bool
}

// disjoint reports whether no object written by one statement is touched
// by the other. Reads may overlap freely (load/load reordering changes no
// verdict); any write/read or write/write overlap keeps program order.
func disjoint(a, b objAccess) bool {
	for w := range a.writes {
		if b.reads[w] || b.writes[w] {
			return false
		}
	}
	for w := range b.writes {
		if a.reads[w] {
			return false
		}
	}
	return true
}

// accessSet computes the object footprint of a simple statement, or
// ok=false when the statement contains shapes whose footprint cannot be
// resolved to a named base object (calls, derefs, member chains).
func accessSet(s *minic.ExprStmt) (objAccess, bool) {
	acc := objAccess{reads: map[string]bool{}, writes: map[string]bool{}}
	ok := exprAccess(s.X, &acc, false)
	return acc, ok
}

func exprAccess(e minic.Expr, acc *objAccess, write bool) bool {
	switch e := e.(type) {
	case nil:
		return true
	case *minic.NumLit, *minic.SizeofExpr:
		return true
	case *minic.Ident:
		if write {
			acc.writes[e.Name] = true
		} else {
			acc.reads[e.Name] = true
		}
		return true
	case *minic.Index:
		// The indexed base is the accessed object; the index is read.
		base := e.L
		for {
			if ix, ok := base.(*minic.Index); ok {
				if !exprAccess(ix.R, acc, false) {
					return false
				}
				base = ix.L
				continue
			}
			break
		}
		id, ok := base.(*minic.Ident)
		if !ok {
			return false
		}
		if write {
			acc.writes[id.Name] = true
		} else {
			acc.reads[id.Name] = true
		}
		return exprAccess(e.R, acc, false)
	case *minic.Unary:
		if e.Op == "*" || e.Op == "&" {
			return false // pointer footprints need alias reasoning
		}
		if e.Op == "++" || e.Op == "--" {
			return exprAccess(e.X, acc, false) && exprAccess(e.X, acc, true)
		}
		return exprAccess(e.X, acc, false)
	case *minic.Binary:
		return exprAccess(e.L, acc, false) && exprAccess(e.R, acc, false)
	case *minic.Assign:
		if e.Op != "" {
			// Compound assignment reads the target too.
			if !exprAccess(e.L, acc, false) {
				return false
			}
		}
		return exprAccess(e.L, acc, true) && exprAccess(e.R, acc, false)
	case *minic.Cast:
		return exprAccess(e.X, acc, false)
	case *minic.Cond:
		return exprAccess(e.C, acc, false) && exprAccess(e.A, acc, false) && exprAccess(e.B, acc, false)
	default:
		// Calls, members, and anything else: unanalyzable.
		return false
	}
}

// stmtLines collects the source lines a statement's expressions sit on;
// in normalized form a simple statement occupies exactly one line, which
// links it to the IR instructions lowered from it.
func stmtLines(s *minic.ExprStmt) map[int]bool {
	lines := map[int]bool{}
	walkExpr(s.X, func(e minic.Expr) {
		switch e := e.(type) {
		case *minic.Ident:
			lines[e.Line] = true
		case *minic.Unary:
			lines[e.Line] = true
		case *minic.Binary:
			lines[e.Line] = true
		case *minic.Assign:
			lines[e.Line] = true
		case *minic.Index:
			lines[e.Line] = true
		case *minic.Call:
			lines[e.Line] = true
		}
	})
	delete(lines, 0)
	return lines
}

// reachingIndependent lowers src and verifies, with the dataflow layer's
// reaching definitions, that no tracked local-slot definition from one
// statement's lines reaches a load on the other's lines. This is the
// IR-level confirmation of the syntactic disjointness check: syntactic
// footprints cover globals and arrays by name, reaching-defs covers the
// compiler-introduced slot traffic the source level cannot see.
func reachingIndependent(src, fn string, lines1, lines2 map[int]bool) bool {
	f, err := minic.Parse(src)
	if err != nil {
		return false
	}
	m, err := lower.Module(f)
	if err != nil {
		return false
	}
	var irf *ir.Func
	for _, cand := range m.Funcs {
		if cand.Nm == fn {
			irf = cand
		}
	}
	if irf == nil {
		return false
	}
	rd := dataflow.NewReachingDefs(irf)
	crosses := func(from, to map[int]bool) bool {
		for _, b := range irf.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpLoad || !to[in.Line] {
					continue
				}
				for _, def := range rd.Defs(in) {
					if from[def.Line] {
						return true
					}
				}
			}
		}
		return false
	}
	return !crosses(lines1, lines2) && !crosses(lines2, lines1)
}

// Rewrites enumerates the metamorphic rewrites by name, in a fixed order.
func Rewrites() []string { return []string{"alpha", "dead", "reorder"} }

// ApplyRewrite dispatches a rewrite by name.
func ApplyRewrite(name, src, fn string) (string, bool, error) {
	switch name {
	case "alpha":
		return AlphaRename(src, fn)
	case "dead":
		return InsertDead(src, fn)
	case "reorder":
		return ReorderIndependent(src, fn)
	}
	return "", false, fmt.Errorf("unknown rewrite %q", name)
}

// ---- AST walkers ----

func findFunc(f *minic.File, name string) *minic.FuncDecl {
	for _, fd := range f.Funcs {
		if fd.Name == name && fd.Body != nil {
			return fd
		}
	}
	return nil
}

// walkStmts visits every statement in a block tree, pre-order.
func walkStmts(b *minic.Block, visit func(minic.Stmt)) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		visit(s)
		switch s := s.(type) {
		case *minic.Block:
			walkStmts(s, visit)
		case *minic.IfStmt:
			walkStmts(s.Then, visit)
			walkStmts(s.Else, visit)
		case *minic.WhileStmt:
			walkStmts(s.Body, visit)
		case *minic.ForStmt:
			if s.Init != nil {
				visit(s.Init)
			}
			walkStmts(s.Body, visit)
		}
	}
}

// walkExpr visits e and every subexpression.
func walkExpr(e minic.Expr, visit func(minic.Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch e := e.(type) {
	case *minic.Unary:
		walkExpr(e.X, visit)
	case *minic.Binary:
		walkExpr(e.L, visit)
		walkExpr(e.R, visit)
	case *minic.Assign:
		walkExpr(e.L, visit)
		walkExpr(e.R, visit)
	case *minic.Index:
		walkExpr(e.L, visit)
		walkExpr(e.R, visit)
	case *minic.Call:
		for _, a := range e.Args {
			walkExpr(a, visit)
		}
	case *minic.Member:
		walkExpr(e.X, visit)
	case *minic.Cast:
		walkExpr(e.X, visit)
	case *minic.Cond:
		walkExpr(e.C, visit)
		walkExpr(e.A, visit)
		walkExpr(e.B, visit)
	}
}

// walkFuncExprs visits every expression in fd's body (including init
// expressions of declarations and loop headers).
func walkFuncExprs(fd *minic.FuncDecl, visit func(minic.Expr)) {
	var stmtExprs func(s minic.Stmt)
	stmtExprs = func(s minic.Stmt) {
		switch s := s.(type) {
		case *minic.DeclStmt:
			for _, d := range s.Decls {
				walkExpr(d.Init, visit)
				for _, e := range d.InitList {
					walkExpr(e, visit)
				}
			}
		case *minic.ExprStmt:
			walkExpr(s.X, visit)
		case *minic.IfStmt:
			walkExpr(s.Cond, visit)
		case *minic.WhileStmt:
			walkExpr(s.Cond, visit)
		case *minic.ForStmt:
			if s.Init != nil {
				stmtExprs(s.Init)
			}
			walkExpr(s.Cond, visit)
			walkExpr(s.Post, visit)
		case *minic.ReturnStmt:
			walkExpr(s.X, visit)
		}
	}
	walkStmts(fd.Body, stmtExprs)
}
