package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/report"
)

// TestListVerbose: -list prints one "id title" line per experiment, and
// -list -v says under each what it measures.
func TestListVerbose(t *testing.T) {
	exps := report.Experiments(report.RunConfig{Threads: []int{1, 2}})
	var plain, verbose bytes.Buffer
	list(&plain, exps, false)
	list(&verbose, exps, true)
	if got := strings.Count(plain.String(), "\n"); got != len(exps) {
		t.Errorf("-list printed %d lines for %d experiments:\n%s", got, len(exps), plain.String())
	}
	sections := strings.Split(verbose.String(), "\n"+exps[1].ID)[0]
	for _, want := range []string{exps[0].ID, "threads:   [1], against serial at 1 thread", "workloads: ", "subjects:  lockfree, hoard, ptmalloc", "columns:   "} {
		if !strings.Contains(sections, want) {
			t.Errorf("-list -v says of %s:\n%s\nwant it to contain %q", exps[0].ID, sections, want)
		}
	}
	for _, what := range []string{"threads:", "workloads:", "subjects:", "columns:"} {
		if got := strings.Count(verbose.String(), what); got != len(exps) {
			t.Errorf("-list -v printed %d %q lines for %d experiments", got, what, len(exps))
		}
	}
}
