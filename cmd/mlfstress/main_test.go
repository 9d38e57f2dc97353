package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/alloc"
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
		{[]string{"-credits", "100", "-kills", "1"}, "MaxCredits"},
		{[]string{"-descalgo", "bogus"}, "bogus"},
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
