package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/alloc"
)

func info(t *testing.T, args ...string) string {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("heapinfo %v: exit %d\n%s", args, code, errOut.String())
	}
	return out.String()
}

func wantAll(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestStaticTables: geometry, and one registry line per backend in the
// form ci/verify.sh cuts fields from.
func TestStaticTables(t *testing.T) {
	out := info(t)
	wantAll(t, out, "Packed word layouts", "blocks/SB", "Large-allocation threshold")
	for _, b := range alloc.Backends() {
		wantAll(t, out, "backend "+b.Name+" aliases=")
	}
	wantAll(t, out, "backend lockfree aliases=[new] verify-on-reuse=true header-mask=0x0 kill-points=12",
		"backend serial aliases=[libc] verify-on-reuse=false header-mask=0x2 kill-points=0",
		"backend buddy aliases=[] verify-on-reuse=false header-mask=0x0 kill-points=7")
	if strings.Contains(out, "Live statistics") {
		t.Error("a workload ran without -live")
	}
}

// TestLive: the lock-free run prints its counters and the census taken
// with the live sets held.
func TestLive(t *testing.T) {
	out := info(t, "-live", "-threads", "2", "-ops", "4000", "-samplerate", "16")
	wantAll(t, out, "Live statistics (lockfree, 2 threads x 4000 ops)", "paths: active=", "hyperblocks: ", "desc pool: ", "Region arenas (2)",
		"Heap census (taken with workload live sets held)", "totals: ", "Arena census", "Live-block ages", "telemetry: ")
}

// TestLiveBuddy: the buddy run prints its order table twice, and after
// the drain every tree is one free block again.
func TestLiveBuddy(t *testing.T) {
	out := info(t, "-live", "-buddy", "-threads", "2", "-ops", "4000")
	wantAll(t, out, "Live statistics (buddy, 2 threads x 4000 ops)", "buddy: 1 trees",
		"Buddy order census (with workload live sets held)",
		"Buddy order census (after drain (fully coalesced)): ext frag 0.0%, 0 coal bits")
	if strings.Contains(out, "Heap census") {
		t.Error("-buddy printed the lock-free census")
	}
}
