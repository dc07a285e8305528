package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces context discipline around the engine's cancellable
// paths (GenerateContext, the batcher's Submit, the prefetching loader): a
// context.Context must flow from the caller down, because a callee
// that quietly substitutes context.Background() detaches itself from
// the caller's deadline — a generation the serve layer sheds for
// missing its SLO would keep fetching layers forever.
//
// Two rules:
//
//  1. non-main packages must not mint context.Background() or
//     context.TODO() outside _test.go files. Compatibility shims that
//     deliberately anchor a fresh context (Generate delegating to
//     GenerateContext) carry an ignore directive naming the reason.
//  2. a function that has a ctx parameter in scope must not pass a
//     freshly minted Background/TODO to a callee — pass the ctx. This
//     also applies inside package main and tests, where rule 1 is
//     silent.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "flags context.Background()/TODO() minted in non-main packages or shadowing an in-scope ctx parameter",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	for _, f := range pass.Files {
		WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := backgroundOrTODO(pass, call)
			if name == "" {
				return true
			}
			ctxParam := enclosingCtxParam(pass, stack)
			switch {
			case pass.Pkg.Name() != "main" && !pass.InTestFile(call.Pos()):
				if ctxParam != "" {
					pass.Reportf(call.Pos(), "context.%s() minted while %q is in scope; pass the caller's context", name, ctxParam)
				} else {
					pass.Reportf(call.Pos(), "non-main package mints context.%s(); thread a ctx from the caller instead", name)
				}
			case ctxParam != "":
				pass.Reportf(call.Pos(), "context.%s() minted while %q is in scope; pass the caller's context", name, ctxParam)
			}
			return true
		})
	}
	return nil
}

// backgroundOrTODO returns "Background" or "TODO" when call mints a
// fresh root context, else "".
func backgroundOrTODO(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if n := fn.Name(); n == "Background" || n == "TODO" {
		return n
	}
	return ""
}

// enclosingCtxParam returns the name of a context.Context parameter of
// any enclosing function (closures see their outer function's ctx), or
// "" when none is nameable.
func enclosingCtxParam(pass *Pass, stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			ft = fn.Type
		case *ast.FuncLit:
			ft = fn.Type
		default:
			continue
		}
		if ft.Params == nil {
			continue
		}
		for _, field := range ft.Params.List {
			tv, ok := pass.TypesInfo.Types[field.Type]
			if !ok || !isContextType(tv.Type) {
				continue
			}
			for _, nm := range field.Names {
				if nm.Name != "_" {
					return nm.Name
				}
			}
		}
	}
	return ""
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
