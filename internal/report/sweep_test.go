package report

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	cellGap = regexp.MustCompile(`\s{2,}`)
	// numericCell is a number, or a space column's median with its
	// runs' min–max: "200 (100–300)".
	numericCell = regexp.MustCompile(`^(-|` + number + `( \(` + number + `–` + number + `\))?)$`)
	// plotLine matches what a figure's ASCII plot draws from the
	// measured values: the y-axis rows, the x-axis rule and its ticks.
	plotLine = regexp.MustCompile(`^\s*([0-9.]+ )?\||^\s*\+-+$|^[\s0-9]+$`)
)

const number = `[0-9][0-9.]*(ns|µs|ms|s|%)?`

// skeleton reduces rendered tables and figures to what does not depend
// on the measurement: titles, column headers, row labels, plot legends
// and notes. Cells are re-joined with " | ", numeric ones masked as "#";
// dropped are the dashed rule (whose length follows the cell widths) and
// a plot's grid.
func skeleton(out string) string {
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line != "" && (strings.Trim(line, "-") == "" || plotLine.MatchString(line)) {
			continue
		}
		cells := cellGap.Split(strings.TrimRight(line, " "), -1)
		for i, c := range cells {
			if numericCell.MatchString(c) {
				cells[i] = "#"
			}
		}
		lines = append(lines, strings.Join(cells, " | "))
	}
	return strings.TrimSpace(strings.Join(lines, "\n"))
}

// goldenSkeletons reads testdata/skeletons.golden: one "==== <id>" line
// per experiment, followed by the skeleton of what it printed with
// -threads 1,2 at commit 2e2c77f, when each experiment was a
// hand-written runner (the five knob sweeps: at 47d5d12 and c1287c8,
// when they were hand-written loops too).
func goldenSkeletons(t *testing.T) map[string]string {
	data, err := os.ReadFile("testdata/skeletons.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, section := range strings.Split("\n"+string(data), "\n==== ")[1:] {
		id, body, _ := strings.Cut(section, "\n")
		golden[id] = strings.TrimSpace(body)
	}
	return golden
}

// TestKnobSweepSkeletons renders every experiment at tiny scale and
// compares everything but the measured numbers against the golden.
func TestKnobSweepSkeletons(t *testing.T) {
	golden := goldenSkeletons(t)
	for _, e := range Experiments(RunConfig{Threads: []int{1, 2}, Scale: 0.0002}) {
		want, ok := golden[e.ID]
		if !ok {
			t.Errorf("experiment %q has no golden skeleton", e.ID)
			continue
		}
		delete(golden, e.ID)
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := e.Run(&buf); err != nil {
				t.Fatal(err)
			}
			if got := skeleton(buf.String()); got != want {
				t.Errorf("skeleton changed\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
	for id := range golden {
		t.Errorf("experiment %q is gone", id)
	}
}
