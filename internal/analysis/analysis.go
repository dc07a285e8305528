// Package analysis implements helmvet, a static-analysis suite that
// mechanically enforces the engine's error-handling, determinism,
// mmap-lifetime and goroutine-lifecycle invariants (DESIGN.md §3e). The
// framework mirrors the shape of golang.org/x/tools/go/analysis — an
// Analyzer receives a typechecked Pass and reports Diagnostics — but is
// built on the standard library only, because this module carries no
// external dependencies. Packages are loaded via `go list -export` and
// typechecked with the gc export-data importer, so the driver works
// offline and needs nothing beyond the Go toolchain.
//
// Invariants enforced (one analyzer each):
//
//   - errcheckwrap: sentinel errors (ErrTransient, ErrCorrupt, ...) are
//     wrapped with %w and classified with errors.Is, never compared
//     with == or matched as strings.
//   - determinism: simulation and kernel packages never read the wall
//     clock, the global math/rand stream, or map iteration order in a
//     way that can leak into results.
//   - ctxflow: non-main packages never mint context.Background(); a
//     function that receives a ctx passes it on.
//   - mmapalias: slices derived from mmap'd checkpoints never escape
//     the fetching frame (no field stores, channel sends, goroutine
//     captures, or returns), with view-returning functions propagated
//     across packages as "mmapview" facts (facts.go, DESIGN §3h).
//   - goleak: goroutines in library code carry a lifecycle tie
//     (channel, select, context, WaitGroup) back to their spawner.
//
// Only checks no other tool makes live here: a copied atomic value is
// go vet's copylocks, a ledger bucket left out of a wire struct's
// Conserved is TestLedgerFieldsConserve (internal/gateway), and an
// unreleased arena matrix, pool page, generation pin or breaker probe
// is caught by the runtime oracles the patches in scripts/mutants/
// name.
//
// Intentional exceptions carry a
// `//lint:helmvet-ignore <analyzer> <reason>` directive on or directly
// above the flagged line; the driver suppresses the finding and fails
// if the directive is malformed, or dead: one that suppresses no
// finding of an analyzer that ran.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one invariant check. Run inspects a single
// typechecked package and reports findings through the Pass. FactRun,
// when non-nil, is invoked over every in-module package in dependency
// order before any Run — it must only export facts to pass.Facts
// (reporting is discarded), so information about a package's exported
// objects is available to analyzers running over its importers.
type Analyzer struct {
	Name    string
	Doc     string
	Run     func(*Pass) error
	FactRun func(*Pass) error
}

// Suite returns the full helmvet analyzer suite in stable order.
func Suite() []*Analyzer {
	return []*Analyzer{ErrCheckWrap, Determinism, CtxFlow, MmapAlias, GoLeak}
}

// A Pass carries one typechecked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Facts     *FactStore

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return isTestFilename(p.Fset.Position(pos).Filename)
}

// A Diagnostic is one finding, positioned in the analyzed source.
// Ignored marks a finding suppressed by a //lint:helmvet-ignore
// directive; such findings are only present when Options.IncludeIgnored
// asked for them.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Ignored  bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// WithStack walks root in preorder, passing fn the path of ancestor
// nodes (outermost first, not including n itself). Traversal into n's
// children is skipped when fn returns false. Analyzers use it where a
// finding depends on context — the enclosing function, a composite
// literal, the parent expression — that ast.Inspect alone cannot see.
func WithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// funcBody pairs one analyzable function body with its declaration
// node (a FuncDecl or FuncLit).
type funcBody struct {
	node ast.Node
	body *ast.BlockStmt
}

// functionsOf enumerates every function body in f — declarations and
// literals — each exactly once. Nested literals are their own entries;
// inspectOwnStmts keeps a body's walk out of the literals inside it.
func functionsOf(f *ast.File) []funcBody {
	var fns []funcBody
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				fns = append(fns, funcBody{fn, fn.Body})
			}
		case *ast.FuncLit:
			fns = append(fns, funcBody{fn, fn.Body})
		}
		return true
	})
	return fns
}

// inspectOwnStmts walks fn's body, skipping nested function literals —
// their bodies are separate funcBody entries.
func inspectOwnStmts(fn funcBody, visit func(ast.Node)) {
	ast.Inspect(fn.body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != fn.node {
			return false
		}
		visit(n)
		return true
	})
}
