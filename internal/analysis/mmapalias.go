package analysis

import (
	"go/ast"
	"go/types"
)

// MmapAlias mechanizes DESIGN §3h: a slice derived from an mmap'd
// checkpoint is only valid while the mapping's generation is open,
// so a view must stay inside the frame that fetched it. The daemon
// unmaps a retired generation the moment its last batcher stops;
// a view squirreled into a struct field, sent on a channel, captured
// by a spawned goroutine, or returned to an unsuspecting caller turns
// that unmap into a use-after-free SIGBUS at an arbitrary later
// point — the exact bug class the checkpoint reader's "copy out, never
// alias" contract exists to prevent.
//
// Sources of views are matched structurally — a Bytes() []byte method
// on the mapping types, syscall.Mmap itself — plus cross-package
// knowledge: the fact phase marks any function whose return value
// aliases a view with an "mmapview" fact, computed bottom-up over the
// module, so a caller package's analysis knows that e.g. a checkpoint
// accessor hands back mapped memory. Taint propagates through
// assignment, re-slicing and parentheses inside one function; escape
// sites (field/element stores, composite literals, channel sends,
// go-statement captures, returns) are findings. Returning a view is
// reported even though it also exports the fact: the callee-side
// directive documents why the handoff is safe, and the fact keeps
// callers honest.
var MmapAlias = &Analyzer{
	Name:    "mmapalias",
	Doc:     "flags mmap-backed views escaping their fetch scope via stores, sends, captures, or returns (DESIGN §3h)",
	Run:     runMmapAlias,
	FactRun: factMmapAlias,
}

const mmapViewFact = "mmapview"

func runMmapAlias(pass *Pass) error {
	mmapAliasOnce(pass)
	return nil
}

// factMmapAlias iterates the per-package pass to a fixpoint so a
// function returning a view through a same-package helper is marked
// regardless of declaration order. Diagnostics in the fact phase are
// discarded by the driver.
func factMmapAlias(pass *Pass) error {
	for i := 0; i < 10; i++ {
		if !mmapAliasOnce(pass) {
			break
		}
	}
	return nil
}

// mmapAliasOnce runs the analysis over the package once, reporting
// escapes and exporting facts; it returns whether a new fact appeared.
func mmapAliasOnce(pass *Pass) bool {
	newFact := false
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, fn := range functionsOf(f) {
			if mmapCheckFunc(pass, fn) {
				newFact = true
			}
		}
	}
	return newFact
}

// mmapCheckFunc computes the function's tainted locals, then walks its
// statements reporting escapes. Returns whether it exported a new
// "mmapview" fact.
func mmapCheckFunc(pass *Pass, fn funcBody) bool {
	taint := make(map[*types.Var]bool)
	tainted := func(e ast.Expr) bool { return mmapTaintedExpr(pass, taint, e) }

	// Fixpoint over assignments: taint flows forward regardless of
	// statement order (loops can carry it backwards in source order).
	for changed := true; changed; {
		changed = false
		inspectOwnStmts(fn, func(n ast.Node) {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if taintAssign(pass, taint, st.Lhs, st.Rhs, tainted) {
					changed = true
				}
			case *ast.ValueSpec:
				lhs := make([]ast.Expr, len(st.Names))
				for i, id := range st.Names {
					lhs[i] = id
				}
				if taintAssign(pass, taint, lhs, st.Values, tainted) {
					changed = true
				}
			}
		})
	}

	newFact := false
	inspectOwnStmts(fn, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				rhs := pairedRHS(st.Lhs, st.Rhs, i)
				if rhs == nil || !tainted(rhs) {
					continue
				}
				if tv, ok := pass.TypesInfo.Types[lhs]; !ok || !isByteSlice(tv.Type) {
					continue // a spread's non-view slot (e.g. the error)
				}
				switch ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					pass.Reportf(rhs.Pos(), "mmap-backed view escapes its fetch scope: stored to a struct field or element (DESIGN §3h)")
				}
			}
		case *ast.CompositeLit:
			for _, el := range st.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if tainted(v) {
					pass.Reportf(v.Pos(), "mmap-backed view escapes its fetch scope: placed in a composite literal (DESIGN §3h)")
				}
			}
		case *ast.SendStmt:
			if tainted(st.Value) {
				pass.Reportf(st.Value.Pos(), "mmap-backed view escapes its fetch scope: sent on a channel (DESIGN §3h)")
			}
		case *ast.GoStmt:
			if goStmtTouchesTaint(pass, taint, st, tainted) {
				pass.Reportf(st.Pos(), "mmap-backed view escapes its fetch scope: captured by a spawned goroutine (DESIGN §3h)")
			}
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				if !tainted(res) || !exprIsByteSlice(pass, res) {
					continue
				}
				pass.Reportf(res.Pos(), "mmap-backed view escapes its fetch scope: returned to the caller (DESIGN §3h)")
				if decl, ok := fn.node.(*ast.FuncDecl); ok {
					if obj, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func); ok {
						if !pass.Facts.ImportObjectFact(obj, mmapViewFact) {
							pass.Facts.ExportObjectFact(obj, mmapViewFact)
							newFact = true
						}
					}
				}
			}
		}
	})
	return newFact
}

// taintAssign marks LHS identifiers whose paired RHS is tainted;
// reports whether anything new was tainted.
func taintAssign(pass *Pass, taint map[*types.Var]bool, lhs, rhs []ast.Expr, tainted func(ast.Expr) bool) bool {
	changed := false
	for i, l := range lhs {
		r := pairedRHS(lhs, rhs, i)
		if r == nil || !tainted(r) {
			continue
		}
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		// Only []byte-typed slots can hold a view: a multi-value spread
		// (`data, err := syscall.Mmap(...)`) must not taint the error.
		if v, ok := identObj(pass, id).(*types.Var); ok && !taint[v] && isByteSlice(v.Type()) {
			taint[v] = true
			changed = true
		}
	}
	return changed
}

// pairedRHS returns the right-hand expression feeding lhs[i], or nil
// when the shapes don't pair one-to-one (multi-value call spreads a
// single call's results; only a direct source call taints then, and
// only slot-insensitively via the call itself).
func pairedRHS(lhs, rhs []ast.Expr, i int) ast.Expr {
	switch {
	case len(lhs) == len(rhs):
		return rhs[i]
	case len(rhs) == 1:
		return rhs[0]
	}
	return nil
}

// mmapTaintedExpr reports whether e evaluates to (an alias of) an mmap
// view: a tainted local, a re-slice or parenthesization of one, or a
// call to a view source.
func mmapTaintedExpr(pass *Pass, taint map[*types.Var]bool, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := identObj(pass, x).(*types.Var)
		return ok && taint[v]
	case *ast.SliceExpr:
		return mmapTaintedExpr(pass, taint, x.X)
	case *ast.CallExpr:
		return isMmapSource(pass, x)
	}
	return false
}

// isMmapSource reports whether call produces a fresh mmap view: a
// Bytes() []byte method on the mapping types, syscall.Mmap, or any
// function carrying an imported "mmapview" fact.
func isMmapSource(pass *Pass, call *ast.CallExpr) bool {
	obj := calleeFunc(pass, call)
	if obj == nil {
		return false
	}
	if pass.Facts.ImportObjectFact(obj, mmapViewFact) {
		return true
	}
	if obj.Pkg() != nil && obj.Pkg().Path() == "syscall" && obj.Name() == "Mmap" {
		return true
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selection, ok := pass.TypesInfo.Selections[sel]; ok && selection.Kind() == types.MethodVal {
			recv := namedTypeName(selection.Recv())
			if (recv == "MappedFile" || recv == "byteRanger") && sel.Sel.Name == "Bytes" && returnsByteSlice(obj) {
				return true
			}
		}
	}
	return false
}

// returnsByteSlice reports whether fn's sole result is []byte.
func returnsByteSlice(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	return isByteSlice(sig.Results().At(0).Type())
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// exprIsByteSlice reports whether e's static type is []byte. A tainted
// multi-result forwarding call (`return ix.payload(m)`) counts: its
// first result is the view.
func exprIsByteSlice(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	if isByteSlice(tv.Type) {
		return true
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok && tuple.Len() > 0 {
		return isByteSlice(tuple.At(0).Type())
	}
	return false
}

// calleeFunc resolves the called function or method object, nil for
// indirect calls and builtins.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// goStmtTouchesTaint reports whether the spawned call passes a tainted
// argument or its closure body references a tainted variable.
func goStmtTouchesTaint(pass *Pass, taint map[*types.Var]bool, st *ast.GoStmt, tainted func(ast.Expr) bool) bool {
	for _, arg := range st.Call.Args {
		if tainted(arg) {
			return true
		}
	}
	if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := identObj(pass, id).(*types.Var); ok && taint[v] {
					found = true
				}
			}
			return true
		})
		return found
	}
	return false
}

func identObj(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Defs[id]
}

func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
