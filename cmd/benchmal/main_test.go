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

// TestRejectsBeforeAnyOutput: an argument benchmal cannot honour exits
// non-zero with the reason on stderr, before the header or any traffic.
func TestRejectsBeforeAnyOutput(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "0"},
		{"-scale", "-1"},
		{"-scale", "NaN"},
		{"-scale", "+Inf"},
		{"-samplerate", "-5"},
		{"-exp", "nosuch"},
		{"-exp", "table1,nosuch"},
		{"-threads", "0"},
		{"-magazine", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code == 0 || stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "benchmal: ") {
			t.Errorf("benchmal %s: exit %d, stdout %q, stderr %q; want a non-zero exit, the reason on stderr and no stdout",
				strings.Join(args, " "), code, stdout.String(), stderr.String())
		}
	}
}
