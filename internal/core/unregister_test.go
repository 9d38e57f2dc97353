package core

import (
	"testing"

	"repro/internal/mem"
)

// TestUnregisterIdempotent pins the documented contract: Unregister may
// be called any number of times; every call after the first is a no-op.
func TestUnregisterIdempotent(t *testing.T) {
	a := New(Config{Processors: 1, MagazineSize: 8})
	th := a.Thread()
	var held []mem.Ptr
	for i := 0; i < 40; i++ {
		p, err := th.Malloc(64)
		if err != nil {
			t.Fatalf("malloc: %v", err)
		}
		held = append(held, p)
	}
	for _, p := range held {
		th.Free(p) // most land in the magazine
	}
	th.Unregister()
	if err := a.CheckInvariants(0); err != nil {
		t.Fatalf("invariants after first Unregister: %v", err)
	}
	th.Unregister() // must be a no-op, not a double flush or panic
	th.Unregister()
	if err := a.CheckInvariants(0); err != nil {
		t.Fatalf("invariants after repeated Unregister: %v", err)
	}
}

// TestFreeAfterUnregister pins the other half of the contract: the
// handle remains usable after Unregister, with Malloc/Free bypassing
// the (disabled) magazine layer so no block can strand in a cache
// nobody will flush.
func TestFreeAfterUnregister(t *testing.T) {
	a := New(Config{Processors: 1, MagazineSize: 8})
	th := a.Thread()
	p, err := th.Malloc(64)
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	th.Unregister()
	th.Free(p) // straggling free through an unregistered handle
	if err := a.CheckInvariants(0); err != nil {
		t.Fatalf("invariants after free-after-Unregister: %v", err)
	}
	// New operations bypass the magazines entirely: a malloc/free pair
	// must leave nothing cached even without another Unregister.
	q, err := th.Malloc(64)
	if err != nil {
		t.Fatalf("malloc after Unregister: %v", err)
	}
	th.Free(q)
	if err := a.CheckInvariants(0); err != nil {
		t.Fatalf("invariants after post-Unregister malloc/free: %v", err)
	}
	// An unregistered handle publishes every event it counts, so the
	// stragglers are in Stats without another publish step.
	if s := a.Stats(); s.Ops.Mallocs != 2 || s.Ops.Frees != 2 {
		t.Fatalf("after Unregister: %d mallocs, %d frees in Stats, want 2 and 2", s.Ops.Mallocs, s.Ops.Frees)
	}
}
