// Command helmvet runs the helmvet static-analysis suite — the
// project's mechanical enforcement of its error-handling, determinism,
// mmap-lifetime and goroutine-lifecycle invariants (DESIGN.md §3e) —
// over the named package patterns.
//
// Usage:
//
//	go run ./cmd/helmvet [-json] [patterns]
//
// Patterns default to ./... . Every run is the whole five-analyzer
// suite (errcheckwrap, determinism, ctxflow, mmapalias, goleak).
// -json emits the findings as a JSON array of {file, line, col,
// analyzer, message, ignored} objects — including directive-suppressed
// findings, marked ignored — for machine consumers such as the CI
// annotation step.
//
// Exit status is a contract CI relies on: 0 the analyzed packages are
// clean (ignored findings do not count), 1 at least one active
// finding, 2 usage error or package load/typecheck failure.
//
// Intentional exceptions are annotated in source:
//
//	//lint:helmvet-ignore <analyzer> <reason>
//
// A malformed directive, or a dead one that suppresses no finding, is
// itself a finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"helmsim/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("helmvet", flag.ContinueOnError)
	fs.SetOutput(errw)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (file/line/col/analyzer/message/ignored), including directive-suppressed findings")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := analysis.RunOpts(".", patterns, analysis.Suite(), analysis.Options{IncludeIgnored: *jsonOut})
	if err != nil {
		fmt.Fprintln(errw, err)
		return 2
	}
	active := 0
	for _, d := range diags {
		if !d.Ignored {
			active++
		}
	}
	if *jsonOut {
		if err := writeJSON(out, diags); err != nil {
			fmt.Fprintln(errw, "helmvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
	}
	if active > 0 {
		fmt.Fprintf(errw, "helmvet: %d finding(s)\n", active)
		return 1
	}
	return 0
}

// jsonFinding is one finding in -json output; the field set is part of
// the CLI's contract with CI.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Ignored  bool   `json:"ignored"`
}

func writeJSON(out io.Writer, diags []analysis.Diagnostic) error {
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, jsonFinding{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
			Ignored:  d.Ignored,
		})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}
