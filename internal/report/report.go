// Package report renders benchmark sweeps as the tables and figures of
// the paper's evaluation section (§4): Table 1 (contention-free
// speedups) and Figures 8(a)–(h) (speedup-vs-processors curves), plus
// the space-efficiency and latency observations of §4.2, as text tables
// and ASCII plots.
package report

import (
	"fmt"
	"sort"
	"strings"
)

// Point is one measurement in a series: a value at a thread count.
type Point struct {
	Threads int
	Value   float64
}

// Series is one allocator's curve across thread counts.
type Series struct {
	Name   string
	Points []Point
}

// Value returns the value at the given thread count (0 if absent).
func (s Series) Value(threads int) (float64, bool) {
	for _, p := range s.Points {
		if p.Threads == threads {
			return p.Value, true
		}
	}
	return 0, false
}

// Figure is a titled set of series, rendered as an ASCII plot plus a
// data table.
type Figure struct {
	Title  string
	YLabel string
	Series []Series
}

// Threads returns the sorted union of thread counts across all series.
func (f Figure) Threads() []int {
	set := map[int]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			set[p.Threads] = true
		}
	}
	out := make([]int, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// Table is a simple labeled grid.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render formats the table with aligned columns.
func (t Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
		fmt.Fprintf(&b, "%s\n", strings.Repeat("=", len(t.Title)))
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := widths[i] - len(cell)
			if i == 0 {
				b.WriteString(cell + strings.Repeat(" ", pad))
			} else {
				b.WriteString(strings.Repeat(" ", pad) + cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// DataTable renders the figure's underlying numbers as a table
// (threads down, series across).
func (f Figure) DataTable() Table {
	cols := []string{"threads"}
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	var rows [][]string
	for _, t := range f.Threads() {
		row := []string{fmt.Sprintf("%d", t)}
		for _, s := range f.Series {
			if v, ok := s.Value(t); ok {
				row = append(row, fmt.Sprintf("%.2f", v))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	return Table{Title: f.Title, Columns: cols, Rows: rows}
}

// Render produces the ASCII plot followed by the data table.
func (f Figure) Render() string {
	return f.plot() + "\n" + f.DataTable().Render()
}
