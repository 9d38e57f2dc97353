package report

import (
	"fmt"
	"strings"
)

// plot renders the figure as an ASCII line chart, one marker letter per
// series (the first letter of the series name, uppercased), in the
// spirit of the paper's Figure 8 panels.
func (f Figure) plot() string {
	const height = 16
	threads := f.Threads()
	if len(threads) == 0 {
		return f.Title + " (no data)\n"
	}

	maxV := 0.0
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.Value > maxV {
				maxV = p.Value
			}
		}
	}
	if maxV == 0 {
		maxV = 1
	}

	// One column per thread count, 4 chars wide.
	colW := 4
	width := len(threads) * colW
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	markers := map[string]byte{}
	for _, s := range f.Series {
		m := byte('?')
		if len(s.Name) > 0 {
			m = byte(strings.ToUpper(s.Name[:1])[0])
		}
		markers[s.Name] = m
	}
	colOf := func(t int) int {
		for i, x := range threads {
			if x == t {
				return i*colW + colW/2
			}
		}
		return 0
	}
	for _, s := range f.Series {
		m := markers[s.Name]
		for _, p := range s.Points {
			row := height - 1 - int(p.Value/maxV*float64(height-1)+0.5)
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			col := colOf(p.Threads)
			if grid[row][col] == ' ' {
				grid[row][col] = m
			} else if grid[row][col] != m {
				grid[row][col] = '*' // overlapping series
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	ylab := f.YLabel
	if ylab == "" {
		ylab = "value"
	}
	for i, line := range grid {
		switch i {
		case 0:
			fmt.Fprintf(&b, "%8.2f |%s\n", maxV, line)
		case height / 2:
			fmt.Fprintf(&b, "%8.2f |%s\n", maxV/2, line)
		case height - 1:
			fmt.Fprintf(&b, "%8.2f |%s\n", 0.0, line)
		default:
			fmt.Fprintf(&b, "%8s |%s\n", "", line)
		}
	}
	fmt.Fprintf(&b, "%8s +%s\n", "", strings.Repeat("-", width))
	lbl := strings.Repeat(" ", 10)
	var xs strings.Builder
	xs.WriteString(lbl)
	for _, t := range threads {
		xs.WriteString(fmt.Sprintf("%*d", colW, t))
	}
	b.WriteString(xs.String() + "\n")
	fmt.Fprintf(&b, "%8s  threads (y: %s; ", "", ylab)
	var ms []string
	for _, s := range f.Series {
		ms = append(ms, fmt.Sprintf("%c=%s", markers[s.Name], s.Name))
	}
	b.WriteString(strings.Join(ms, " ") + ", *=overlap)\n")
	return b.String()
}
