// Package report renders experiment results as aligned ASCII tables and
// CSV for terminal inspection.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	// Title is printed above the grid.
	Title string
	// Headers label the columns.
	Headers []string
	// Rows hold the cells; short rows are padded with empty cells.
	Rows [][]string
}

// AddRow appends one row, stringifying the values with %v ("%.4g" for
// floats).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, fmt.Sprintf("%.4g", v))
		case float32:
			row = append(row, fmt.Sprintf("%.4g", v))
		default:
			row = append(row, fmt.Sprintf("%v", c))
		}
	}
	t.Rows = append(t.Rows, row)
}

// widths computes per-column widths over headers and rows.
func (t *Table) widths() []int {
	n := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > n {
			n = len(r)
		}
	}
	w := make([]int, n)
	for i, h := range t.Headers {
		if len(h) > w[i] {
			w[i] = len(h)
		}
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	widths := t.widths()
	line := func(cells []string) error {
		var b strings.Builder
		for i := 0; i < len(widths); i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if len(t.Headers) > 0 {
		if err := line(t.Headers); err != nil {
			return err
		}
		var seps []string
		for _, width := range widths {
			seps = append(seps, strings.Repeat("-", width))
		}
		if err := line(seps); err != nil {
			return err
		}
	}
	for _, r := range t.Rows {
		if err := line(r); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes the table as RFC-4180-ish CSV (quotes cells containing
// commas, quotes or newlines).
func (t *Table) RenderCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	write := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = esc(c)
		}
		_, err := fmt.Fprintln(w, strings.Join(out, ","))
		return err
	}
	if len(t.Headers) > 0 {
		if err := write(t.Headers); err != nil {
			return err
		}
	}
	for _, r := range t.Rows {
		if err := write(r); err != nil {
			return err
		}
	}
	return nil
}
