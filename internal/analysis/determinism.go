package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism enforces the simulator's replayability contract: the
// same config and seed must produce the same numbers, because every
// figure we compare against the paper (and every chaos run we replay
// from a fault seed) is only evidence if it reproduces. Three leaks
// are checked in simulation/kernel packages (simPackages below):
//
//  1. wall-clock reads — time.Now/Since/Sleep/timers. Simulated time
//     comes from the cost model; real time comes from an injected
//     clock seam (so tests can stub it), never from the time package
//     directly.
//  2. the global math/rand stream — rand.Intn and friends share
//     process-wide state that other code perturbs; randomness must
//     flow from a seeded *rand.Rand (rand.New(rand.NewSource(seed))).
//  3. map iteration whose order can escape — ranging over a map is
//     fine while the body only does commutative integer aggregation,
//     inserts into another map, or collects keys that are sorted
//     before further use; anything else (appending unsorted, float
//     accumulation, early break, order-dependent assignment) lets Go's
//     randomized map order leak into results or metrics.
//
// Test files are exempt: tests may legitimately time out, benchmark,
// or race the wall clock. Injectable-clock seams in production code
// carry a //lint:helmvet-ignore determinism directive explaining why
// they are safe.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flags wall-clock reads, global math/rand use, and order-leaking map iteration in simulation packages",
	Run:  runDeterminism,
}

// simPackages names the packages whose outputs must replay bit-for-bit
// from a seed. Matching is by package name: every internal simulation,
// kernel and harness package is listed; cmd/* (package main) and the
// analysis tooling itself are not. TestSimPackagesExist holds every key
// to a directory under internal/, so a rename cannot silently drop a
// package from the check.
var simPackages = map[string]bool{
	"core": true, "tensor": true, "memdev": true, "gpu": true,
	"xfer": true, "sched": true, "fault": true, "infer": true,
	"kvcache": true, "serve": true, "quant": true, "workload": true,
	"placement": true, "trace": true, "model": true, "calib": true,
	"stats": true, "checkpoint": true, "runcache": true,
	"parallel": true, "experiments": true, "autotune": true,
	"units": true, "batch": true,
}

// forbiddenTimeFuncs are the time-package functions that read or wait
// on the wall clock.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// allowedRandFuncs are the math/rand constructors that take an
// explicit source and therefore stay seedable.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func runDeterminism(pass *Pass) error {
	base := pass.Pkg.Name()
	if i := len(base); i > 5 && base[i-5:] == "_test" {
		base = base[:i-5]
	}
	if !simPackages[base] {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		checkClockAndRand(pass, f)
		checkMapRanges(pass, f)
	}
	return nil
}

func checkClockAndRand(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			if forbiddenTimeFuncs[fn.Name()] {
				pass.Reportf(sel.Pos(), "time.%s reads the wall clock in a simulation package; inject a clock seam instead", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			sig, _ := fn.Type().(*types.Signature)
			if sig != nil && sig.Recv() == nil && !allowedRandFuncs[fn.Name()] {
				pass.Reportf(sel.Pos(), "rand.%s uses the global process-seeded stream; use a seeded *rand.Rand (rand.New(rand.NewSource(seed)))", fn.Name())
			}
		}
		return true
	})
}

// checkMapRanges flags range-over-map statements whose bodies are not
// provably order-insensitive.
func checkMapRanges(pass *Pass, f *ast.File) {
	WithStack(f, func(n ast.Node, stack []ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if mapRangeOrderInsensitive(pass, rs, enclosingFuncBody(stack)) {
			return true
		}
		pass.Reportf(rs.For, "map iteration order is randomized and this loop body can leak it; sort the keys first or keep the body to commutative aggregation")
		return true
	})
}

// enclosingFuncBody returns the body of the innermost enclosing
// function in stack, or nil.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// mapRangeOrderInsensitive reports whether the loop body cannot leak
// iteration order: every statement is commutative integer aggregation,
// a map insert/delete, a continue, an if-guard around such statements,
// or a key/value append into a slice that is sorted later in the same
// function.
func mapRangeOrderInsensitive(pass *Pass, rs *ast.RangeStmt, encl *ast.BlockStmt) bool {
	var needSort []*types.Var
	if !orderInsensitiveStmts(pass, rs.Body.List, &needSort) {
		return false
	}
	for _, v := range needSort {
		if !sortedAfter(pass, encl, rs, v) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmts(pass *Pass, stmts []ast.Stmt, needSort *[]*types.Var) bool {
	for _, s := range stmts {
		if !orderInsensitiveStmt(pass, s, needSort) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(pass *Pass, s ast.Stmt, needSort *[]*types.Var) bool {
	switch st := s.(type) {
	case *ast.IncDecStmt:
		return true
	case *ast.AssignStmt:
		return orderInsensitiveAssign(pass, st, needSort)
	case *ast.ExprStmt:
		// delete(m, k) commutes (distinct keys per iteration).
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					return true
				}
			}
		}
		return false
	case *ast.IfStmt:
		if st.Init != nil {
			return false
		}
		if !orderInsensitiveStmts(pass, st.Body.List, needSort) {
			return false
		}
		switch e := st.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return orderInsensitiveStmts(pass, e.List, needSort)
		case *ast.IfStmt:
			return orderInsensitiveStmt(pass, e, needSort)
		}
		return false
	case *ast.BranchStmt:
		return st.Tok == token.CONTINUE
	}
	return false
}

func orderInsensitiveAssign(pass *Pass, st *ast.AssignStmt, needSort *[]*types.Var) bool {
	switch st.Tok {
	case token.ADD_ASSIGN, token.MUL_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Commutative only over exact arithmetic: integers yes, floats
		// no (FP addition is not associative, so map order changes the
		// low bits), strings no (concatenation order is the point).
		for _, lhs := range st.Lhs {
			t, ok := pass.TypesInfo.Types[lhs]
			if !ok || !isExactNumeric(t.Type) {
				return false
			}
		}
		return true
	case token.ASSIGN:
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return false
		}
		// m2[k] = v: map inserts commute (distinct keys).
		if ix, ok := st.Lhs[0].(*ast.IndexExpr); ok {
			if tv, ok := pass.TypesInfo.Types[ix.X]; ok {
				_, isMap := tv.Type.Underlying().(*types.Map)
				return isMap
			}
			return false
		}
		// s = append(s, x): fine iff s is sorted before it is used,
		// which the caller verifies.
		lhs, ok := st.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := st.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
			return false
		}
		first, ok := call.Args[0].(*ast.Ident)
		if !ok || first.Name != lhs.Name {
			return false
		}
		v, ok := pass.TypesInfo.Uses[lhs].(*types.Var)
		if !ok {
			return false
		}
		*needSort = append(*needSort, v)
		return true
	}
	return false
}

func isExactNumeric(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// sortedAfter reports whether, somewhere after the range loop in the
// enclosing function, v is passed to a sort.* or slices.* call — the
// collect-then-sort idiom that launders map order back out.
func sortedAfter(pass *Pass, encl *ast.BlockStmt, rs *ast.RangeStmt, v *types.Var) bool {
	if encl == nil {
		return false
	}
	found := false
	ast.Inspect(encl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || found {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == v {
					found = true
				}
				return !found
			})
		}
		return true
	})
	return found
}
