package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// listedPackage is the subset of `go list -json` output the driver
// consumes.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	ForTest    string
	Export     string
	GoFiles    []string
	Imports    []string
	DepOnly    bool
	Standard   bool
	ImportMap  map[string]string
	Error      *listedError
}

type listedError struct {
	Err string
}

// Options tunes one Run of the suite.
type Options struct {
	// IncludeIgnored keeps directive-suppressed findings in the result,
	// marked Ignored, instead of dropping them.
	IncludeIgnored bool
}

// Run loads the packages matched by patterns (relative to dir), runs
// every analyzer over each, applies //lint:helmvet-ignore directives
// (reporting malformed and dead ones), and returns the surviving
// findings sorted by position. Test files are included: in-package
// _test.go files are analyzed together with the package, external
// _test packages separately.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunOpts(dir, patterns, analyzers, Options{})
}

// RunOpts is Run with explicit Options.
func RunOpts(dir string, patterns []string, analyzers []*Analyzer, opts Options) ([]Diagnostic, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	targets := selectTargets(pkgs)
	if len(targets) == 0 {
		return nil, fmt.Errorf("helmvet: no packages match %v", patterns)
	}
	byPath := make(map[string]*listedPackage, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	ld := &loader{byPath: byPath, cache: make(map[string]*checkedPackage)}
	facts := newFactStore()
	// Fact phase: walk every in-module source package bottom-up so an
	// analyzer inspecting a package can import facts about everything
	// it depends on, whether or not the dependency was itself a target.
	if hasFactRuns(analyzers) {
		for _, lp := range factOrder(pkgs) {
			cp, err := ld.check(lp)
			if err != nil {
				return nil, err
			}
			facts.setExportKey(lp.ImportPath, lp.Export)
			for _, a := range analyzers {
				if a.FactRun == nil {
					continue
				}
				pass := cp.newPass(a, facts, func(Diagnostic) {})
				if err := a.FactRun(pass); err != nil {
					return nil, fmt.Errorf("helmvet: %s facts on %s: %v", a.Name, lp.ImportPath, err)
				}
			}
		}
	}
	absDir, _ := filepath.Abs(dir)
	var diags []Diagnostic
	for _, lp := range targets {
		ds, err := analyzePackage(ld, lp, analyzers, facts, opts)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	for i := range diags {
		if rel, err := filepath.Rel(absDir, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

func hasFactRuns(analyzers []*Analyzer) bool {
	for _, a := range analyzers {
		if a.FactRun != nil {
			return true
		}
	}
	return false
}

// goList shells out to `go list -export -deps -test` so every
// dependency arrives with compiled export data; the target packages
// themselves are then typechecked from source.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps", "-test",
		"-json=Dir,ImportPath,Name,ForTest,Export,GoFiles,Imports,DepOnly,Standard,ImportMap,Error",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("helmvet: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("helmvet: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// selectTargets picks the packages to analyze from a -deps -test
// listing: everything matched by the patterns, with a package's
// in-package test variant (which carries its _test.go files alongside
// the regular ones) superseding the plain package, and the synthesized
// ".test" mains dropped.
func selectTargets(pkgs []*listedPackage) []*listedPackage {
	hasTestVariant := make(map[string]bool)
	for _, p := range pkgs {
		if !p.DepOnly && p.ForTest != "" && !strings.HasSuffix(p.Name, "_test") && !strings.HasSuffix(p.ImportPath, ".test") {
			hasTestVariant[p.ForTest] = true
		}
	}
	var targets []*listedPackage
	for _, p := range pkgs {
		if p.DepOnly || p.Standard || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.ForTest == "" && hasTestVariant[p.ImportPath] {
			continue
		}
		targets = append(targets, p)
	}
	return targets
}

// factOrder returns every in-module source package — targets and
// in-module dependencies alike, plain variants only — topologically
// sorted so imports precede importers. The module carries no external
// dependencies, so "non-standard with source" is "in-module".
func factOrder(pkgs []*listedPackage) []*listedPackage {
	inModule := make(map[string]*listedPackage)
	for _, p := range pkgs {
		if p.Standard || p.Error != nil || len(p.GoFiles) == 0 {
			continue
		}
		if p.ForTest != "" || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		inModule[p.ImportPath] = p
	}
	var order []*listedPackage
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(path string)
	visit = func(path string) {
		p := inModule[path]
		if p == nil || state[path] != 0 {
			return
		}
		state[path] = 1
		for _, imp := range p.Imports {
			visit(imp)
		}
		state[path] = 2
		order = append(order, p)
	}
	// Deterministic root order.
	paths := make([]string, 0, len(inModule))
	for path := range inModule {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		visit(path)
	}
	return order
}

// checkedPackage is one parsed and typechecked package, reused between
// the fact and reporting phases.
type checkedPackage struct {
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

func (cp *checkedPackage) newPass(a *Analyzer, facts *FactStore, report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      cp.fset,
		Files:     cp.files,
		Pkg:       cp.pkg,
		TypesInfo: cp.info,
		Facts:     facts,
		report:    report,
	}
}

// loader parses and typechecks listed packages from source, memoized
// by (bracketed) import path.
type loader struct {
	byPath map[string]*listedPackage
	cache  map[string]*checkedPackage
}

func (ld *loader) check(lp *listedPackage) (*checkedPackage, error) {
	if lp.Error != nil {
		return nil, fmt.Errorf("helmvet: %s: %s", lp.ImportPath, lp.Error.Err)
	}
	if cp, ok := ld.cache[lp.ImportPath]; ok {
		return cp, nil
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("helmvet: %v", err)
		}
		files = append(files, f)
	}
	var typeErrs []error
	conf := types.Config{
		Importer: newExportImporter(fset, ld.byPath, lp.ImportMap),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, _ := conf.Check(lp.ImportPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("helmvet: typechecking %s: %v", lp.ImportPath, typeErrs[0])
	}
	cp := &checkedPackage{fset: fset, files: files, pkg: pkg, info: info}
	ld.cache[lp.ImportPath] = cp
	return cp, nil
}

// analyzePackage runs the analyzers over one target package, applying
// ignore directives: suppressed findings are dropped (or kept, marked
// Ignored), malformed and dead directives are findings of their own.
func analyzePackage(ld *loader, lp *listedPackage, analyzers []*Analyzer, facts *FactStore, opts Options) ([]Diagnostic, error) {
	cp, err := ld.check(lp)
	if err != nil {
		return nil, err
	}
	dirs, diags := parseDirectives(cp.fset, cp.files)
	for _, a := range analyzers {
		pass := cp.newPass(a, facts, func(d Diagnostic) {
			if dirs.suppresses(d) {
				if opts.IncludeIgnored {
					d.Ignored = true
					diags = append(diags, d)
				}
				return
			}
			diags = append(diags, d)
		})
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("helmvet: %s on %s: %v", a.Name, lp.ImportPath, err)
		}
	}
	return append(diags, dirs.dead(analyzers)...), nil
}

// exportImporter resolves imports of the package under analysis from
// the gc export data `go list -export` produced, honoring the
// package's ImportMap (vendor and test-variant remappings).
type exportImporter struct {
	inner types.ImporterFrom
}

func newExportImporter(fset *token.FileSet, byPath map[string]*listedPackage, importMap map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		lp := byPath[path]
		if lp == nil || lp.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(lp.Export)
	}
	return exportImporter{inner: importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)}
}

func (i exportImporter) Import(path string) (*types.Package, error) {
	return i.ImportFrom(path, "", 0)
}

func (i exportImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return i.inner.ImportFrom(path, srcDir, mode)
}

func isTestFilename(name string) bool {
	return strings.HasSuffix(name, "_test.go")
}
