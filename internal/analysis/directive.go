package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// An ignore directive marks an intentional exception to an invariant:
//
//	//lint:helmvet-ignore <analyzer> <reason>
//
// placed on the offending line or the line directly above it. The
// analyzer name must be one of the suite's (or "all"), and the reason
// is mandatory — a directive is documentation of why the exception is
// safe, not a mute button. Malformed directives are themselves
// findings, so a typoed analyzer name cannot silently disable a check.
//
// A well-formed directive can still be dead: the code it excused was
// fixed or moved, and it now suppresses nothing — until some later,
// unrelated finding lands on its line and is silenced unread. A
// directive that suppresses no finding of an analyzer that ran is
// therefore a finding too.
var directiveRE = regexp.MustCompile(`^//lint:helmvet-ignore(?:\s+(\S+))?\s*(.*)$`)

type directive struct {
	analyzer string
	pos      token.Position
	used     bool
}

// directiveSet holds one package's well-formed directives in source
// order.
type directiveSet []*directive

// parseDirectives scans the comments of files for ignore directives.
// It returns the set plus diagnostics for malformed ones.
func parseDirectives(fset *token.FileSet, files []*ast.File) (directiveSet, []Diagnostic) {
	known := map[string]bool{"all": true}
	for _, a := range Suite() {
		known[a.Name] = true
	}
	var set directiveSet
	var diags []Diagnostic
	bad := func(pos token.Pos, msg string) {
		diags = append(diags, Diagnostic{Analyzer: "helmvet", Pos: fset.Position(pos), Message: msg})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				name, reason := m[1], strings.TrimSpace(m[2])
				switch {
				case name == "":
					bad(c.Pos(), "helmvet-ignore directive names no analyzer")
				case !known[name]:
					bad(c.Pos(), "helmvet-ignore directive names unknown analyzer "+name)
				case reason == "":
					bad(c.Pos(), "helmvet-ignore directive is missing a reason")
				default:
					set = append(set, &directive{analyzer: name, pos: fset.Position(c.Pos())})
				}
			}
		}
	}
	return set, diags
}

// suppresses reports whether a well-formed directive on d's line, or
// the line directly above it, covers d's analyzer, and marks every
// such directive used.
func (s directiveSet) suppresses(d Diagnostic) bool {
	hit := false
	for _, dir := range s {
		if dir.pos.Filename != d.Pos.Filename || dir.analyzer != d.Analyzer && dir.analyzer != "all" {
			continue
		}
		if dir.pos.Line == d.Pos.Line || dir.pos.Line == d.Pos.Line-1 {
			dir.used = true
			hit = true
		}
	}
	return hit
}

// dead reports every directive that suppressed nothing although its
// analyzer ran ("all" runs whenever any analyzer does). A directive
// naming an analyzer outside this run is not judged.
func (s directiveSet) dead(ran []*Analyzer) []Diagnostic {
	judged := map[string]bool{"all": len(ran) > 0}
	for _, a := range ran {
		judged[a.Name] = true
	}
	var diags []Diagnostic
	for _, dir := range s {
		if !dir.used && judged[dir.analyzer] {
			diags = append(diags, Diagnostic{Analyzer: "helmvet", Pos: dir.pos,
				Message: "helmvet-ignore directive for " + dir.analyzer + " is dead: it suppresses no finding"})
		}
	}
	return diags
}
