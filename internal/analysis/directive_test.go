package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dir_test_src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

// TestDirectiveMalformed checks that a directive missing its analyzer
// or reason, or naming an unknown analyzer, is itself a finding — a
// typo must not silently disable a check.
func TestDirectiveMalformed(t *testing.T) {
	cases := []struct {
		name, comment, wantMsg string
	}{
		{"no analyzer", "//lint:helmvet-ignore", "names no analyzer"},
		{"unknown analyzer", "//lint:helmvet-ignore nosuchcheck stale name", "unknown analyzer nosuchcheck"},
		{"missing reason", "//lint:helmvet-ignore determinism", "missing a reason"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset, files := parseOne(t, "package p\n\n"+tc.comment+"\nvar X int\n")
			_, diags := parseDirectives(fset, files)
			if len(diags) != 1 {
				t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
			}
			if !strings.Contains(diags[0].Message, tc.wantMsg) {
				t.Errorf("diagnostic %q does not mention %q", diags[0].Message, tc.wantMsg)
			}
			if diags[0].Analyzer != "helmvet" {
				t.Errorf("malformed-directive diagnostic attributed to %q, want helmvet", diags[0].Analyzer)
			}
		})
	}
}

// TestDirectiveDead checks that a directive which suppressed nothing
// is reported once its analyzer has run — "all" whenever any analyzer
// ran — and that a used directive, or one naming an analyzer outside
// the run, is not.
func TestDirectiveDead(t *testing.T) {
	src := "package p\n\n//lint:helmvet-ignore determinism seam\nvar a int\n\n//lint:helmvet-ignore all seam\nvar b int\n"
	fset, files := parseOne(t, src)
	set, diags := parseDirectives(fset, files)
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
	if got := set.dead(nil); len(got) != 0 {
		t.Errorf("no analyzer ran, yet dead directives reported: %v", got)
	}
	got := set.dead([]*Analyzer{CtxFlow})
	if len(got) != 1 || got[0].Pos.Line != 6 || !strings.Contains(got[0].Message, "for all is dead") {
		t.Errorf("ctxflow ran: got %v, want only the unused all directive on line 6", got)
	}
	got = set.dead([]*Analyzer{Determinism})
	if len(got) != 2 || got[0].Analyzer != "helmvet" || !strings.Contains(got[0].Message, "for determinism is dead") {
		t.Errorf("determinism ran: got %v, want both directives dead, determinism first", got)
	}
	set.suppresses(Diagnostic{Analyzer: "determinism", Pos: token.Position{Filename: "dir_test_src.go", Line: 4}})
	set.suppresses(Diagnostic{Analyzer: "ctxflow", Pos: token.Position{Filename: "dir_test_src.go", Line: 7}})
	if got := set.dead([]*Analyzer{Determinism, CtxFlow}); len(got) != 0 {
		t.Errorf("both directives suppressed a finding, yet reported dead: %v", got)
	}
}

// TestDirectiveSuppression checks the line rules: a directive covers
// its own line and the line directly below, for the named analyzer
// (or all), and nothing else.
func TestDirectiveSuppression(t *testing.T) {
	src := `package p

//lint:helmvet-ignore determinism seam
var a int

//lint:helmvet-ignore all seam
var b int
`
	fset, files := parseOne(t, src)
	set, diags := parseDirectives(fset, files)
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
	mk := func(analyzer string, line int) Diagnostic {
		return Diagnostic{Analyzer: analyzer, Pos: token.Position{Filename: "dir_test_src.go", Line: line}}
	}
	for _, tc := range []struct {
		name string
		d    Diagnostic
		want bool
	}{
		{"named analyzer, line below", mk("determinism", 4), true},
		{"named analyzer, directive line", mk("determinism", 3), true},
		{"other analyzer not covered", mk("ctxflow", 4), false},
		{"two lines below not covered", mk("determinism", 5), false},
		{"all covers any analyzer", mk("ctxflow", 7), true},
		{"other file not covered", Diagnostic{Analyzer: "determinism", Pos: token.Position{Filename: "other.go", Line: 4}}, false},
	} {
		if got := set.suppresses(tc.d); got != tc.want {
			t.Errorf("%s: suppresses = %v, want %v", tc.name, got, tc.want)
		}
	}
}
