package alloc

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/buddy"
	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/shadow"
)

// TestRegistryTable: Names, New's aliases and the hook-point tables all
// come from the one table, and the tables are the backends' own
// enumerations in order.
func TestRegistryTable(t *testing.T) {
	bs := Backends()
	if len(bs) != len(Names()) {
		t.Fatalf("%d backends, %d names", len(bs), len(Names()))
	}
	for i, b := range bs {
		if Names()[i] != b.Name {
			t.Errorf("Names()[%d] = %q, entry is %q", i, Names()[i], b.Name)
		}
		for _, alias := range append([]string{b.Name}, b.Aliases...) {
			a, err := New(alias, testOptions())
			if err != nil || a.Name() != b.Name {
				t.Errorf("New(%q) = %v, %v; want the %s backend", alias, a, err, b.Name)
			}
		}
	}
	want := map[string][]string{"lockfree": nil, "buddy": nil}
	for p := core.HookPoint(0); p < core.NumHookPoints; p++ {
		want["lockfree"] = append(want["lockfree"], p.String())
	}
	for p := buddy.HookPoint(0); p < buddy.NumHookPoints; p++ {
		want["buddy"] = append(want["buddy"], p.String())
	}
	for _, b := range bs {
		if len(b.HookPoints) != len(want[b.Name]) {
			t.Errorf("%s: hook points %v, want %v", b.Name, b.HookPoints, want[b.Name])
			continue
		}
		for i, name := range want[b.Name] {
			if b.HookPoints[i] != name {
				t.Errorf("%s: hook point %d is %q, want %q", b.Name, i, b.HookPoints[i], name)
			}
		}
	}
}

// TestHarnessEveryBackend drives each backend through its registry
// entry: a hooked handle reports only points from the entry's table (and
// a backend without a table never calls the hook), the census walks —
// the OS layer for all six, the backend's own structures above it where
// there is a walker — and the strict check passes once every block is
// freed. Behind the oracle wrapper the harness is the same one — for
// the lock-free allocator all twelve points, the census and the checker
// — and the hooked handle is mirrored like any other.
func TestHarnessEveryBackend(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) { harnessBackend(t, name, false) })
		t.Run(name+"-shadow", func(t *testing.T) { harnessBackend(t, name, true) })
	}
}

func harnessBackend(t *testing.T, name string, oracle bool) {
	opt := testOptions()
	opt.Shadow = oracle
	opt.ShadowConfig.OnViolation = func(shadow.Violation) {}
	a, err := New(name, opt)
	if err != nil {
		t.Fatal(err)
	}
	h := HarnessOf(a)
	if o := h.Oracle(); (o != nil) != oracle {
		t.Fatalf("Oracle() = %v with Options.Shadow = %v", o, oracle)
	} else if oracle {
		defer o.Close()
	}
	if _, bare := a.(CoreAccessor); bare != (name == "lockfree" && !oracle) {
		t.Errorf("CoreAccessor satisfied = %v", bare)
	}
	if want := len(lookup(name).HookPoints); len(h.HookPoints()) != want {
		t.Fatalf("%d hook points, the entry has %d", len(h.HookPoints()), want)
	}
	seen := map[int]bool{}
	th := h.NewThread(func(point int) { seen[point] = true })
	var held []mem.Ptr
	for i := 0; i < 3000; i++ {
		p, err := th.Malloc(uint64(8 << (i % 9)))
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, p)
	}
	hookable := len(h.HookPoints()) > 0
	c := h.Census()
	if c == nil || len(c.Parts) == 0 {
		t.Fatalf("Census() = %v", c)
	}
	var osl *census.OSLayer
	for _, part := range c.Parts {
		if o, ok := part.(*census.OSLayer); ok {
			osl = o
		}
	}
	if osl == nil || osl.RegionAllocs == 0 || osl.LiveWords == 0 {
		t.Errorf("census OS-layer part = %+v with %d blocks held", osl, len(held))
	}
	if (len(c.Parts) > 1) != hookable {
		t.Errorf("census has %d parts on a backend with %d hook points", len(c.Parts), len(h.HookPoints()))
	}
	var text bytes.Buffer
	c.WriteText(&text)
	if !strings.Contains(text.String(), "Region arenas (") {
		t.Errorf("census text lacks the arena table:\n%s", text.String())
	}
	if rep := h.Inspect(int64(len(held))); rep.InvariantErr != nil {
		t.Errorf("Inspect with %d blocks held: %+v", len(held), rep)
	}
	for _, p := range held {
		th.Free(p)
	}
	if u, ok := th.(Unregisterer); ok {
		u.Unregister()
	}
	if (len(seen) > 0) != hookable {
		t.Errorf("hook saw points %v, table has %d", seen, len(h.HookPoints()))
	}
	for point := range seen {
		if point < 0 || point >= len(h.HookPoints()) {
			t.Errorf("hook reported point %d outside the table of %d", point, len(h.HookPoints()))
		}
	}
	if rep := h.Inspect(0); rep.InvariantErr != nil || rep.ProbeErr != nil {
		t.Errorf("Inspect(0) after the drain: %+v", rep)
	}
	if oracle {
		if n := h.Oracle().LiveBlocks(); n != 0 {
			t.Errorf("the hooked handle was not mirrored: %d blocks modeled live after the drain", n)
		}
	}
	if err := h.ShadowErr(); err != nil {
		t.Errorf("ShadowErr = %v", err)
	}
	if rep := h.Inspect(-1); rep.InvariantErr != nil || rep.ProbeErr != nil {
		t.Errorf("Inspect(-1): %+v", rep)
	}
}

// TestInspectCatchesWhatItIsFor: the strict check at live == 0 notices a
// block that was never freed, on both backends that have a checker.
func TestInspectCatchesWhatItIsFor(t *testing.T) {
	for _, name := range []string{"lockfree", "buddy"} {
		a, err := New(name, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.NewThread().Malloc(64); err != nil {
			t.Fatal(err)
		}
		if rep := HarnessOf(a).Inspect(0); rep.InvariantErr == nil {
			t.Errorf("%s: Inspect(0) passed with a block still allocated", name)
		}
		if rep := HarnessOf(a).Inspect(1); rep.InvariantErr != nil {
			t.Errorf("%s: Inspect(1) with one block allocated: %v", name, rep.InvariantErr)
		}
	}
}

// TestFromBuddyAdoptsTheCallersTrees: a buddy built with its own
// geometry is still the registry's buddy backend.
func TestFromBuddyAdoptsTheCallersTrees(t *testing.T) {
	b := buddy.New(buddy.Config{HeapConfig: testOptions().HeapConfig, TreeWordsLog2: 12})
	a := FromBuddy(b, Options{})
	h := HarnessOf(a)
	if a.Name() != "buddy" || len(h.HookPoints()) != int(buddy.NumHookPoints) {
		t.Fatalf("FromBuddy gave %q with %d hook points", a.Name(), len(h.HookPoints()))
	}
	th := a.NewThread()
	p, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if bc, ok := h.Census().Parts[0].(*census.Buddy); !ok || bc.Stats.TreeWords != 1<<12 {
		t.Errorf("census sees %+v, want trees of the caller's 4096 words", h.Census().Parts[0])
	}
	th.Free(p)
	if rep := h.Inspect(0); rep.InvariantErr != nil {
		t.Error(rep.InvariantErr)
	}
}
