package main

import (
	"bytes"
	"fmt"
	"regexp"
	"slices"
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
	wantAll(t, out, "Live statistics (lockfree, 2 threads x 4000 ops; lockfree is built with hyper=true ",
		"paths: active=", "hyperblocks: ", "descriptors: ", "OS layer (words):",
		"Census with workload live sets held:", "totals: ", "Live-block ages", "Census after drain:", "telemetry: ")
}

// TestLiveBuddy: the buddy run prints its order table twice, and after
// the drain every tree is one free block again.
func TestLiveBuddy(t *testing.T) {
	out := info(t, "-live", "-alloc", "buddy", "-threads", "2", "-ops", "4000")
	wantAll(t, out, "Live statistics (buddy, 2 threads x 4000 ops", "buddy: 1 trees", "Census with workload live sets held:")
	_, drained, _ := strings.Cut(out, "Census after drain:")
	wantAll(t, drained, "Buddy order census: ext frag 0.0%, 0 coal bits")
	if strings.Contains(out, "Size classes") {
		t.Error("the buddy run printed the lock-free census")
	}
}

// TestLiveEveryBackend: -live runs on every registry entry and prints at
// least the OS layer's part of both censuses.
func TestLiveEveryBackend(t *testing.T) {
	for _, name := range alloc.Names() {
		out := info(t, "-live", "-alloc", name, "-threads", "2", "-ops", "2000")
		wantAll(t, out, "Live statistics ("+name+", 2 threads x 2000 ops", "telemetry: ")
		if n := strings.Count(out, "OS layer (words):"); n != 2 {
			t.Errorf("%s: %d OS-layer tables, want one per census:\n%s", name, n, out)
		}
	}
}

// TestRejectedConfig: the shared shape flags are validated before any
// traffic runs.
func TestRejectedConfig(t *testing.T) {
	for _, args := range [][]string{{"-magazine", "-1"}, {"-alloc", "nosuch"}} {
		var out, errOut bytes.Buffer
		if code := run(append([]string{"-live"}, args...), &out, &errOut); code != 1 || strings.Contains(out.String(), "Live statistics") {
			t.Errorf("heapinfo -live %v: exit %d\n%s", args, code, errOut.String())
		}
	}
}

var (
	pathInParens = regexp.MustCompile(`\(/[^)]*\)`)
	numeral      = regexp.MustCompile(`0x[0-9a-f]+|[0-9][0-9.]*(ns|µs|ms|s|%)?`)
)

// skeleton reduces a -live run to its line structure: the telemetry
// snapshot (internal/telemetry's text, not this PR's concern) cut off,
// every numeral masked as "#" (a lone "-" cell too), file paths as
// "(path)", column padding squeezed, table rows — lines of nothing but
// masks — and blank lines dropped.
func skeleton(out string) []string {
	out, _, _ = strings.Cut(out[strings.Index(out, "Live statistics"):], "\ntelemetry: ")
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		line = numeral.ReplaceAllString(pathInParens.ReplaceAllString(line, "(path)"), "#")
		line = strings.Join(strings.Fields(line), " ")
		if strings.Trim(line, "#- ") != "" {
			lines = append(lines, line)
		}
	}
	return lines
}

const (
	osLayerSkeleton = `heap: # words live (max-live # KiB), # region allocs / # frees, external fragmentation #
OS layer (words):
reserved materialized live skipped allocs frees reused free regions free words occupancy ext frag
`
	lockFreeSkeleton = `allocator: mallocs=# frees=#; # large mallocs, # empty-partial skips
paths: active=# partial=# newSB=# raceLoss=# sbFreed=#
hyperblocks: # allocated, # released
Size classes (superblocks by anchor state, block inventory):
class A F P E used free resv mag partial int frag
totals: # superblocks, blocks used=# free=# resv=# mag=#, carve waste # words
%s` + osLayerSkeleton + `Region-bin occupancy (free regions awaiting reuse):
region words regions
descriptors: # allocated, # on freelist
Live-block ages (# samples at rate #/#): p#=# p#=# oldest=#
`
	buddySkeleton = `buddy: # trees x # words, # grows (# lost races), # hint hits, # scans, #/# beyond-tree
Buddy order census: ext frag #, # coal bits
order block words free used
` + osLayerSkeleton + `Region bins: empty (no free regions awaiting reuse)
`
)

// liveSkeletons is the line structure of `heapinfo -live -alloc <name>
// -threads 2 -samplerate 1`: the census held, then drained (when no
// sampled block is left to be wasteful or to have a call site).
var liveSkeletons = map[string]string{
	"lockfree": "Live statistics (lockfree, # threads x # ops; lockfree is built with hyper=true magazine=#):\n" +
		"Census with workload live sets held:\n" +
		fmt.Sprintf(lockFreeSkeleton, "sampled internal fragmentation: #\n") +
		"Top call sites by live sampled bytes:\nlive bytes oldest site\n# # # repro/internal/churn.(*Driver).Step (path)\n" +
		"Census after drain:\n" + fmt.Sprintf(lockFreeSkeleton, ""),
	"buddy": "Live statistics (buddy, # threads x # ops; lockfree is built with hyper=true magazine=#):\n" +
		"Census with workload live sets held:\n" + buddySkeleton + "Census after drain:\n" + buddySkeleton,
}

// parentLines maps every line shape `heapinfo -live [-buddy]` printed at
// commit 7adc75f (the per-backend printers this command used to hold)
// to the shape that carries its numbers now; a parent line that was
// split names the one its first numbers went to, and CHANGES.md (PR 16)
// says where the rest are.
var parentLines = map[string]map[string]string{
	"lockfree": {
		"Live statistics (lockfree, # threads x # ops):":                                        "Live statistics (lockfree, # threads x # ops; lockfree is built with hyper=true magazine=#):",
		"paths: active=# partial=# newSB=# raceLoss=# sbFreed=#":                                "",
		"descriptors: # allocated, # on freelist; heap max-live # KiB":                          "descriptors: # allocated, # on freelist",
		"hyperblocks: # allocated, # released":                                                  "",
		"desc pool: freelist backend, # stripes, free per stripe [# #]":                         "descriptors: # allocated, # on freelist",
		"heap: # words live, # region allocs / # frees; # large mallocs, # empty-partial skips": "heap: # words live (max-live # KiB), # region allocs / # frees, external fragmentation #",
		"Region arenas (#):": "OS layer (words):",
		"arena reserved live skipped allocs frees reused steals":                        "reserved materialized live skipped allocs frees reused free regions free words occupancy ext frag",
		"(words; allocs/reused/steals are request-side, the rest partition-side)":       "OS layer (words):",
		"Region-bin occupancy (free regions awaiting reuse):":                           "",
		"arena region words regions":                                                    "region words regions",
		"Heap census (taken with workload live sets held):":                             "Census with workload live sets held:",
		"class A F P E used free resv mag partial int frag":                             "",
		"totals: # superblocks, blocks used=# free=# resv=# mag=#, carve waste # words": "",
		"Arena census (bump occupancy and external fragmentation):":                     "OS layer (words):",
		"arena reserved free regions free words occupancy ext frag":                     "reserved materialized live skipped allocs frees reused free regions free words occupancy ext frag",
		"Live-block ages (# samples at rate #/#): p#=# p#=# oldest=#":                   "",
		"sampled internal fragmentation: # (external #)":                                "sampled internal fragmentation: #",
		"Top call sites by live sampled bytes:":                                         "",
		"live bytes oldest site":                                                        "",
		"# # # repro/internal/churn.(*Driver).Step (path)":                              "",
	},
	"buddy": {
		"Live statistics (buddy, # threads x # ops):":                                             "Live statistics (buddy, # threads x # ops; lockfree is built with hyper=true magazine=#):",
		"buddy: # trees x # words, # grows (# lost races), # hint hits, # scans, #/# beyond-tree": "",
		"Buddy order census (with workload live sets held): ext frag #, # coal bits":              "Buddy order census: ext frag #, # coal bits",
		"order block words free used":                                                             "",
		"Buddy order census (after drain (fully coalesced)): ext frag #, # coal bits":             "Census after drain:",
	},
}

// TestLiveSkeleton pins the line structure of -live for the two backends
// that had one at the parent commit, and that none of the parent's lines
// went missing.
func TestLiveSkeleton(t *testing.T) {
	for name, want := range liveSkeletons {
		got := skeleton(info(t, "-live", "-alloc", name, "-threads", "2", "-ops", "4000", "-samplerate", "1"))
		if joined := strings.Join(got, "\n") + "\n"; joined != want {
			t.Errorf("%s: skeleton changed\n--- got ---\n%s--- want ---\n%s", name, joined, want)
		}
		for parent, now := range parentLines[name] {
			if now == "" {
				now = parent
			}
			if !slices.Contains(got, now) {
				t.Errorf("%s: the parent's line %q has no counterpart %q", name, parent, now)
			}
		}
	}
}
