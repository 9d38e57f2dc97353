package main

import (
	"bytes"
	"fmt"
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
			for _, want := range []string{"alloc=" + name, "4000 ops", "invariants OK"} {
				if !strings.Contains(out, want) {
					t.Errorf("output lacks %q:\n%s", want, out)
				}
			}
		})
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
			code, out, errOut := stress("-alloc", b.Name, "-kills", "2", "-threads", "2", "-ops", "3000", "-seed", "2", "-events", "4")
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
// oracle's verdict, and the abort message carries the attribution and
// the flight recorder's tail.
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
			for _, want := range []string{"shadow[" + name + "]: double-free", "op thread 0", "flight recorder tail"} {
				if !strings.Contains(msg, want) {
					t.Errorf("abort message lacks %q:\n%s", want, msg)
				}
			}
		})
	}
}
