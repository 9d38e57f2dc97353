package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/alloc"
)

// TestStaticTables: geometry, and one registry line per backend in the
// form ci/verify.sh cuts fields from. The command runs no workload, so
// -live, like any unknown flag, is a usage error.
func TestStaticTables(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 0 {
		t.Fatalf("heapinfo: exit %d\n%s", code, errOut.String())
	}
	wants := []string{"Packed word layouts", "SB words", "blocks/SB", "Large-allocation threshold",
		"backend lockfree aliases=[new] verify-on-reuse=true header-mask=0x0 kill-points=14",
		"backend serial aliases=[libc] verify-on-reuse=false header-mask=0x2 kill-points=0",
		"backend buddy aliases=[] verify-on-reuse=false header-mask=0x0 kill-points=7"}
	for _, b := range alloc.Backends() {
		wants = append(wants, "backend "+b.Name+" aliases=")
	}
	for _, want := range wants {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-live"}, &out, &errOut); code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), "Usage of heapinfo") {
		t.Errorf("with -live: exit %d, stdout %q, stderr %q; want usage and exit 2", code, out.String(), errOut.String())
	}
}
