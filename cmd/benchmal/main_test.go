package main

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/report"
)

// TestExperimentIndexAgrees keeps the two hand-maintained experiment
// lists — the -exp alternatives in this command's usage comment and
// DESIGN.md's "Experiment index" — equal to report.Experiments().
func TestExperimentIndexAgrees(t *testing.T) {
	var want []string
	for _, e := range report.Experiments() {
		want = append(want, e.ID)
	}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`\[-exp all\|([^\]]+)\]`).FindSubmatch(src)
	if m == nil {
		t.Fatal("main.go: no [-exp all|...] list in the usage comment")
	}
	var usage []string
	for _, id := range strings.Split(string(m[1]), "|") {
		// "fig8a..fig8h" abbreviates a run of ids differing in the last letter.
		if lo, hi, ok := strings.Cut(id, ".."); ok {
			for c := lo[len(lo)-1]; c <= hi[len(hi)-1]; c++ {
				usage = append(usage, lo[:len(lo)-1]+string(c))
			}
			continue
		}
		usage = append(usage, id)
	}
	if !slices.Equal(usage, want) {
		t.Errorf("usage comment lists -exp %v\nreport.Experiments() has   %v", usage, want)
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(design), "\n## Experiment index\n")
	if !ok {
		t.Fatal(`DESIGN.md: no "## Experiment index" section`)
	}
	index, _, _ = strings.Cut(index, "\n## ")
	// An id is documented by a table row ("| id | ...") or a
	// "benchmal -exp id" mention.
	var documented []string
	for _, m := range regexp.MustCompile(`(?m)^\| ([a-z0-9]+) \||benchmal -exp ([a-z0-9]+)`).FindAllStringSubmatch(index, -1) {
		documented = append(documented, m[1]+m[2])
	}
	slices.Sort(documented)
	documented = slices.Compact(documented)
	slices.Sort(want)
	if !slices.Equal(documented, want) {
		t.Errorf("DESIGN.md Experiment index documents %v\nreport.Experiments() has           %v", documented, want)
	}
}
