// Package stats provides the presentation layer for measurement data:
// aligned text tables, CSV export, and ASCII stacked-bar charts used by
// cmd/paperbench to render the paper's figures in a terminal.
package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	header  []string
	rows    [][]string
	numeric []bool // per column: right-align
	prec    []int  // per column: float decimals (-1 = default 3)
}

// NewTable returns a table with the given column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header, numeric: make([]bool, len(header))}
}

// SetPrecision overrides the number of decimals used for float cells in
// column col (the default is 3). Call it before the affected Rows; it
// returns the table for chaining.
func (t *Table) SetPrecision(col, digits int) *Table {
	if col < 0 || digits < 0 {
		panic("stats: negative column or precision")
	}
	for len(t.prec) <= col {
		t.prec = append(t.prec, -1)
	}
	t.prec[col] = digits
	return t
}

// floatPrec returns the decimals for a float cell in column i.
func (t *Table) floatPrec(i int) int {
	if i < len(t.prec) && t.prec[i] >= 0 {
		return t.prec[i]
	}
	return 3
}

// Row appends a row; values are rendered with %v, floats with 3
// decimals (see SetPrecision). Numeric cells are right-aligned.
func (t *Table) Row(cells ...any) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.*f", t.floatPrec(i), v)
			t.mark(i)
		case float32:
			row[i] = fmt.Sprintf("%.*f", t.floatPrec(i), v)
			t.mark(i)
		case int, int64, uint64, uint32:
			row[i] = fmt.Sprintf("%d", v)
			t.mark(i)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
	return t
}

func (t *Table) mark(i int) {
	for len(t.numeric) <= i {
		t.numeric = append(t.numeric, false)
	}
	t.numeric[i] = true
}

// widths computes per-column widths over header and rows.
func (t *Table) widths() []int {
	w := make([]int, len(t.header))
	for i, h := range t.header {
		w[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			for len(w) <= i {
				w = append(w, 0)
			}
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintln(w, t.Title)
	}
	widths := t.widths()
	line := func(cells []string) {
		var b strings.Builder
		b.WriteString(" ")
		for i, c := range cells {
			b.WriteString(" ")
			if i < len(t.numeric) && t.numeric[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
				b.WriteString(c)
			} else {
				b.WriteString(c)
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.header)
	for _, r := range t.rows {
		line(r)
	}
}

// WriteCSV renders the table as CSV (quotes only when needed) and
// returns the write error, if any.
func (t *Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	for _, r := range t.rows {
		line(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// StackedBar is one bar of a stacked chart: named segments in order.
type StackedBar struct {
	Label    string
	Segments []float64
}

// Chart renders horizontal stacked bars in ASCII, the terminal
// equivalent of the paper's figures. Values are relative to Max (often
// the normalization baseline = 1.0).
type Chart struct {
	Title    string
	SegNames []string
	Bars     []StackedBar
	Max      float64 // full-scale value; 0 = auto from data
	Width    int     // character budget for the bar; 0 = 50
}

// segGlyphs distinguish segments in order (useful, sync, load, store or
// the energy components).
var segGlyphs = []byte{'#', '~', '-', '=', '+', '*', ':', '.'}

// Write renders the chart.
func (c *Chart) Write(w io.Writer) {
	width := c.Width
	if width <= 0 {
		width = 50
	}
	max := c.Max
	if max <= 0 {
		for _, b := range c.Bars {
			t := 0.0
			for _, s := range b.Segments {
				t += s
			}
			if t > max {
				max = t
			}
		}
		if max == 0 {
			max = 1
		}
	}
	if c.Title != "" {
		fmt.Fprintln(w, c.Title)
	}
	labw := 0
	for _, b := range c.Bars {
		if len(b.Label) > labw {
			labw = len(b.Label)
		}
	}
	for _, b := range c.Bars {
		var bar strings.Builder
		total := 0.0
		for si, s := range b.Segments {
			total += s
			n := int(s/max*float64(width) + 0.5)
			g := segGlyphs[si%len(segGlyphs)]
			bar.Write(bytesRepeat(g, n))
		}
		fmt.Fprintf(w, "  %-*s |%-*s| %.3f\n", labw, b.Label, width, bar.String(), total)
	}
	if len(c.SegNames) > 0 {
		var leg strings.Builder
		for i, n := range c.SegNames {
			if i > 0 {
				leg.WriteString("  ")
			}
			fmt.Fprintf(&leg, "%c=%s", segGlyphs[i%len(segGlyphs)], n)
		}
		fmt.Fprintf(w, "  [%s]\n", leg.String())
	}
}

func bytesRepeat(b byte, n int) []byte {
	if n <= 0 {
		return nil
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}
