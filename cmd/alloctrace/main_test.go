package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/alloc"
)

// alloctrace runs the command and returns its exit status and output.
func alloctrace(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestGenInfoRunEveryBackend: a generated trace of every pattern is
// written, read back with the same counts, and replayed on every
// registered allocator, one table row each.
func TestGenInfoRunEveryBackend(t *testing.T) {
	for _, pattern := range []string{"private", "prodcons", "bursty"} {
		t.Run(pattern, func(t *testing.T) {
			file := filepath.Join(t.TempDir(), "trace.bin")
			code, out, errOut := alloctrace("gen", "-pattern", pattern, "-events", "3000", "-threads", "3", "-o", file)
			if code != 0 || !strings.Contains(out, "3000 events") {
				t.Fatalf("gen: exit %d\n%s%s", code, out, errOut)
			}
			code, out, errOut = alloctrace("info", "-i", file)
			if code != 0 || !strings.Contains(out, "threads  3") || !strings.Contains(out, "events   3000") {
				t.Fatalf("info: exit %d\n%s%s", code, out, errOut)
			}
			code, out, errOut = alloctrace("run", "-i", file)
			if code != 0 {
				t.Fatalf("run: exit %d\n%s%s", code, out, errOut)
			}
			rows := strings.Split(strings.TrimSpace(out), "\n")[1:]
			if len(rows) != len(alloc.Names()) {
				t.Fatalf("%d rows for %d allocators:\n%s", len(rows), len(alloc.Names()), out)
			}
			for i, name := range alloc.Names() {
				if f := strings.Fields(rows[i]); len(f) != 3 || f[0] != name || f[1] == "0" {
					t.Errorf("row %d = %q, want %s with a replay rate", i, rows[i], name)
				}
			}
		})
	}
}

// TestRunSelectsAllocators: -allocs takes names and aliases.
func TestRunSelectsAllocators(t *testing.T) {
	file := filepath.Join(t.TempDir(), "trace.bin")
	if code, _, errOut := alloctrace("gen", "-events", "500", "-o", file); code != 0 {
		t.Fatal(errOut)
	}
	code, out, errOut := alloctrace("run", "-i", file, "-allocs", "new,libc", "-procs", "2")
	if code != 0 || !strings.Contains(out, "new") || !strings.Contains(out, "libc") || strings.Contains(out, "hoard") {
		t.Fatalf("exit %d\n%s%s", code, out, errOut)
	}
}

// TestFailuresExitNonZero: usage errors exit 2, failed operations 1,
// each with the reason on stderr and nothing on stdout.
func TestFailuresExitNonZero(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.bin")
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{nil, 2, "usage"},
		{[]string{"bogus"}, 2, "usage"},
		{[]string{"gen", "-nosuchflag"}, 2, "nosuchflag"},
		{[]string{"gen", "-pattern", "bogus"}, 1, "unknown pattern"},
		{[]string{"info", "-i", missing}, 1, "missing.bin"},
		{[]string{"run", "-i", missing}, 1, "missing.bin"},
	} {
		code, out, errOut := alloctrace(tc.args...)
		if code != tc.code || !strings.Contains(errOut, tc.want) || out != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit %d mentioning %q", tc.args, code, out, errOut, tc.code, tc.want)
		}
	}
}

// TestRunRejectsAnUnknownAllocator: after a valid trace is loaded.
func TestRunRejectsAnUnknownAllocator(t *testing.T) {
	file := filepath.Join(t.TempDir(), "trace.bin")
	if code, _, errOut := alloctrace("gen", "-events", "100", "-o", file); code != 0 {
		t.Fatal(errOut)
	}
	if code, _, errOut := alloctrace("run", "-i", file, "-allocs", "bogus"); code != 1 || !strings.Contains(errOut, "unknown allocator") {
		t.Errorf("exit %d, stderr %q", code, errOut)
	}
}
