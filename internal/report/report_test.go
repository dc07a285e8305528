package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{Title: "demo", Headers: []string{"name", "value"}}
	t.AddRow("alpha", 1.5)
	t.AddRow("beta", "x,y")
	t.AddRow("gamma", 42)
	return t
}

func TestRenderAlignment(t *testing.T) {
	var b strings.Builder
	if err := sample().Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + separator + 3 rows.
	if len(lines) != 6 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") || !strings.Contains(lines[1], "value") {
		t.Errorf("header line = %q", lines[1])
	}
	if !strings.Contains(lines[2], "----") {
		t.Errorf("separator line = %q", lines[2])
	}
	// Columns align: "value" column starts at the same offset everywhere.
	off := strings.Index(lines[1], "value")
	if got := strings.Index(lines[3], "1.5"); got != off {
		t.Errorf("misaligned column: %d vs %d", got, off)
	}
}

func TestRenderNoTitleNoHeaders(t *testing.T) {
	tab := &Table{}
	tab.AddRow("a", "b")
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "a  b\n" {
		t.Errorf("bare render = %q", got)
	}
}

func TestRenderCSV(t *testing.T) {
	var b strings.Builder
	if err := sample().RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d CSV lines", len(lines))
	}
	if lines[0] != "name,value" {
		t.Errorf("CSV header = %q", lines[0])
	}
	// Comma-containing cell is quoted.
	if lines[2] != `beta,"x,y"` {
		t.Errorf("quoted cell = %q", lines[2])
	}
}

func TestCSVEscapesQuotes(t *testing.T) {
	tab := &Table{Headers: []string{"h"}}
	tab.AddRow(`say "hi"`)
	var b strings.Builder
	if err := tab.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"say ""hi"""`) {
		t.Errorf("quote escaping broken: %q", b.String())
	}
}

func TestRaggedRows(t *testing.T) {
	tab := &Table{Headers: []string{"a", "b", "c"}}
	tab.AddRow("only-one")
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "only-one") {
		t.Errorf("short row lost")
	}
}

func TestAddRowFormats(t *testing.T) {
	tab := &Table{}
	tab.AddRow(float32(2.25), 3.14159265, "s", 7)
	r := tab.Rows[0]
	if r[0] != "2.25" || r[1] != "3.142" || r[2] != "s" || r[3] != "7" {
		t.Errorf("formatting = %v", r)
	}
}
