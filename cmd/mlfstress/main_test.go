package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"repro/alloc"
	"repro/internal/mem"
)

// stress runs the command and returns its exit status and output.
func stress(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestPlainRunEveryBackend: every registered backend goes through the
// one path — alloc.New, the shared churn, the backend's own check.
func TestPlainRunEveryBackend(t *testing.T) {
	for _, name := range alloc.Names() {
		t.Run(name, func(t *testing.T) {
			code, out, errOut := stress("-alloc", name, "-threads", "2", "-ops", "4000")
			if code != 0 {
				t.Fatalf("exit %d\n%s%s", code, out, errOut)
			}
			want := []string{"alloc=" + name, "4000 ops", "telemetry: ", "OS layer (words):", "invariants OK"}
			if name == "buddy" {
				// Drained, every tree is one free block again.
				want = append(want, "Buddy order census: ext frag 0.0%, 0 coal bits")
			}
			for _, w := range want {
				if !strings.Contains(out, w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
			if name != "lockfree" && strings.Contains(out, "Size classes") {
				t.Errorf("the %s run printed the lock-free census:\n%s", name, out)
			}
		})
	}
}

var (
	pathInParens = regexp.MustCompile(`\(/[^)]*\)`)
	numeral      = regexp.MustCompile(`0x[0-9a-f]+|[0-9][0-9.]*(ns|µs|ms|s|%)?`)
)

// skeleton reduces a plain run to the line structure of what follows
// the telemetry snapshot (internal/telemetry's text, which has no blank
// line): the drained census and the verdict. Every numeral is masked as
// "#" (a lone "-" cell too), file paths as "(path)", column padding
// squeezed; table rows — lines of nothing but masks — and blank lines
// are dropped.
func skeleton(out string) string {
	_, out, _ = strings.Cut(out, "\ntelemetry: ")
	_, out, _ = strings.Cut(out, "\n\n")
	var b strings.Builder
	for _, line := range strings.Split(out, "\n") {
		line = numeral.ReplaceAllString(pathInParens.ReplaceAllString(line, "(path)"), "#")
		line = strings.Join(strings.Fields(line), " ")
		if strings.Trim(line, "#- ") != "" {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

const osLayerSkeleton = `heap: # words live (max-live # KiB), # region allocs / # frees, external fragmentation #
OS layer (words):
reserved live skipped allocs frees reused free regions free words occupancy ext frag
`

// censusSkeletons is the line structure of the census and verdict of
// `mlfstress -hyper -alloc <name> -threads 2 -ops 4000`: every block
// freed.
var censusSkeletons = map[string]string{
	"lockfree": `allocator: mallocs=# frees=#; # large mallocs, # empty-partial skips
paths: active=# partial=# newSB=# raceLoss=# sbFreed=#
hyperblocks: # allocated, # released
Size classes (superblocks by anchor state, block inventory):
class A F P E used free resv mag partial
totals: # superblocks, blocks used=# free=# resv=# mag=#, carve waste # words
` + osLayerSkeleton + `Region-bin occupancy (free regions awaiting reuse):
region words regions
descriptors: # allocated, # on freelist
retained superblock cache # KiB (bound # KiB)
invariants OK
`,
	"buddy": `buddy: # trees x # words, # grows (# lost races), # hint hits, # scans, #/# beyond-tree
Buddy order census: ext frag #, # coal bits
order block words free used
` + osLayerSkeleton + `Region bins: empty (no free regions awaiting reuse)
invariants OK
`,
}

// TestCensusSkeleton pins the line structure of the drained census for
// the two backends whose census has parts of its own.
func TestCensusSkeleton(t *testing.T) {
	for name, want := range censusSkeletons {
		code, out, errOut := stress("-hyper", "-alloc", name, "-threads", "2", "-ops", "4000")
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s%s", name, code, out, errOut)
		}
		if got := skeleton(out); got != want {
			t.Errorf("%s: skeleton changed\n--- got ---\n%s--- want ---\n%s", name, got, want)
		}
	}
}

// TestKillSweepEveryHookableBackend: -kills works for exactly the
// backends whose registry entry lists hook points, and says why not for
// the others.
func TestKillSweepEveryHookableBackend(t *testing.T) {
	for _, b := range alloc.Backends() {
		t.Run(b.Name, func(t *testing.T) {
			// Seed 2: neither victim draws the buddy's grow-before-publish,
			// which takes seconds to reach in a default-sized tree.
			code, out, errOut := stress("-alloc", b.Name, "-kills", "2", "-threads", "2", "-ops", "3000", "-seed", "2")
			if len(b.HookPoints) == 0 {
				if code == 0 || !strings.Contains(errOut, b.Name+" has none") {
					t.Fatalf("exit %d, stderr %q; want a refusal naming the backend", code, errOut)
				}
				if out != "" {
					t.Errorf("traffic ran before the refusal:\n%s", out)
				}
				return
			}
			if code != 0 {
				t.Fatalf("exit %d\n%s%s", code, out, errOut)
			}
			for _, want := range []string{"fault injection", "alloc=" + b.Name, "kills=map[", "telemetry: ", "survivors made full progress"} {
				if !strings.Contains(out, want) {
					t.Errorf("output lacks %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestKillSweepRunsTheShapeTheFlagsDescribe: -hyper, -lifo and -credits
// used to be dropped in kill mode (sched.Plan had no field for them).
// The banner must print them and the sweep must really run with them.
func TestKillSweepRunsTheShapeTheFlagsDescribe(t *testing.T) {
	code, out, errOut := stress("-kills", "2", "-hyper", "-lifo", "-credits", "8", "-magazine", "4",
		"-threads", "2", "-ops", "3000", "-telemetry=false")
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out, errOut)
	}
	for _, want := range []string{"hyper=true lifo=true credits=8 magazine=4", "hyperblocks: "} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestCensusCountsMagazineMallocs: with magazines on, the drained census
// prints a magazines line whose hits close the path identity
// active+partial+newSB+hits = mallocs; with them off it prints none.
func TestCensusCountsMagazineMallocs(t *testing.T) {
	code, out, errOut := stress("-threads", "2", "-ops", "4000", "-magazine", "8")
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out, errOut)
	}
	var mallocs, frees, large, skips, active, partial, newSB, raceLoss, sbFreed, hits, misses, flushes, blocks uint64
	for _, f := range []struct {
		format string
		args   []any
	}{
		{"allocator: mallocs=%d frees=%d; %d large mallocs, %d empty-partial skips", []any{&mallocs, &frees, &large, &skips}},
		{"paths: active=%d partial=%d newSB=%d raceLoss=%d sbFreed=%d", []any{&active, &partial, &newSB, &raceLoss, &sbFreed}},
		{"magazines: hits=%d misses=%d flushes=%d (%d blocks)", []any{&hits, &misses, &flushes, &blocks}},
	} {
		prefix, _, _ := strings.Cut(f.format, " ")
		found := false
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, prefix+" ") {
				if _, err := fmt.Sscanf(line, f.format, f.args...); err != nil {
					t.Fatalf("%q: %v", line, err)
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("output lacks a %q line:\n%s", prefix, out)
		}
	}
	if hits == 0 || active+partial+newSB+hits != mallocs {
		t.Errorf("active %d + partial %d + newSB %d + magazine hits %d != mallocs %d",
			active, partial, newSB, hits, mallocs)
	}

	code, out, errOut = stress("-threads", "2", "-ops", "4000")
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out, errOut)
	}
	if strings.Contains(out, "magazines: ") {
		t.Errorf("a run without magazines prints a magazines line:\n%s", out)
	}
}

// TestRejectedConfigStopsBeforeTraffic: what core.Config.Validate
// rejects, and an unknown backend, exit non-zero with the reason and no
// banner.
func TestRejectedConfigStopsBeforeTraffic(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-magazine", "-1"}, "MagazineSize"},
		{[]string{"-magazine", "-1", "-alloc", "hoard"}, "MagazineSize"},
		{[]string{"-credits", "100", "-kills", "1"}, "MaxCredits"},
		{[]string{"-alloc", "bogus"}, "unknown allocator"},
		{[]string{"-threads", "0"}, "must be at least 1"},
		{[]string{"-ops", "-5"}, "must be at least 1"},
		{[]string{"-ops", "0", "-kills", "1"}, "must be at least 1"},
	} {
		code, out, errOut := stress(tc.args...)
		if code == 0 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want failure mentioning %q", tc.args, code, errOut, tc.want)
		}
		if out != "" {
			t.Errorf("%v: output before the rejection:\n%s", tc.args, out)
		}
	}
}

// TestShadowRunEveryBackend: -shadow means an oracle in this, the only,
// binary, whichever backend sits behind it — plain and, where the entry
// has kill points, under kills. The lock-free allocator is still held
// to its retention bound behind the wrapper.
func TestShadowRunEveryBackend(t *testing.T) {
	for _, b := range alloc.Backends() {
		t.Run(b.Name, func(t *testing.T) {
			code, out, errOut := stress("-alloc", b.Name, "-shadow", "-magazine", "8", "-threads", "2", "-ops", "4000")
			if code != 0 {
				t.Fatalf("exit %d\n%s%s", code, out, errOut)
			}
			want := []string{"alloc=" + b.Name, "shadow=true", "invariants OK"}
			if b.Name == "lockfree" {
				want = append(want, "magazine=8", "retained superblock cache")
			}
			for _, w := range want {
				if !strings.Contains(out, w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
			if errOut != "" {
				t.Errorf("stderr: %s", errOut)
			}
			if len(b.HookPoints) == 0 {
				return
			}
			code, out, errOut = stress("-alloc", b.Name, "-shadow", "-kills", "2", "-magazine", "8",
				"-threads", "2", "-ops", "3000", "-seed", "2", "-telemetry=false")
			if code != 0 || !strings.Contains(out, "shadow=true") {
				t.Fatalf("kill sweep under the oracle: exit %d\n%s%s", code, out, errOut)
			}
		})
	}
}

// doubleFreer frees one block twice. Outside a kill sweep the oracle
// panics on the first violation; the handle recovers the report so the
// test can read it, where the real command dies with it.
type doubleFreer struct {
	alloc.Thread
	frees  int
	report *atomic.Value
}

func (d *doubleFreer) Free(p mem.Ptr) {
	d.Thread.Free(p)
	if d.frees++; d.frees == 100 {
		defer func() { d.report.Store(fmt.Sprint(recover())) }()
		d.Thread.Free(p)
	}
}

func (d *doubleFreer) Unregister() {
	if u, ok := d.Thread.(alloc.Unregisterer); ok {
		u.Unregister()
	}
}

// TestShadowCatchesAnInjectedDoubleFree: the run fails with the
// oracle's verdict, and the abort message carries the attribution.
func TestShadowCatchesAnInjectedDoubleFree(t *testing.T) {
	for _, name := range []string{"lockfree", "hoard", "buddy"} {
		t.Run(name, func(t *testing.T) {
			var report atomic.Value
			injected := false
			defer func(orig func(alloc.Allocator) alloc.Thread) { newThread = orig }(newThread)
			newThread = func(a alloc.Allocator) alloc.Thread {
				if injected {
					return a.NewThread()
				}
				injected = true
				return &doubleFreer{Thread: a.NewThread(), report: &report}
			}

			code, out, errOut := stress("-alloc", name, "-shadow", "-magazine", "8", "-threads", "2", "-ops", "4000")
			if code != 1 || !strings.Contains(errOut, "shadow oracle: shadow: 1 violation(s)") || !strings.Contains(errOut, "double-free") {
				t.Fatalf("exit %d, stderr %q; want the oracle's double-free verdict\n%s", code, errOut, out)
			}
			msg, _ := report.Load().(string)
			for _, want := range []string{"shadow[" + name + "]: double-free", "op thread 0"} {
				if !strings.Contains(msg, want) {
					t.Errorf("abort message lacks %q:\n%s", want, msg)
				}
			}
		})
	}
}
