package mem

import (
	"runtime"
	"testing"
	"time"
)

// TestReservationReleased: a heap's mapping is unmapped once the heap is
// unreachable, also when a region hook closes over the heap, as the
// shadow oracle's does, and so holds it in a cycle. Of 1,000 default
// heaps, each with one region written and every other one hooked, only
// the ten still referenced keep their reservations after a few GCs.
func TestReservationReleased(t *testing.T) {
	// collect runs GCs until cond holds, or a bounded number of times,
	// and returns the live reservations; finalizers run after each GC.
	collect := func(cond func(n int64) bool) int64 {
		n := liveReservations.Load()
		for i := 0; i < 100 && !cond(n); i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
			n = liveReservations.Load()
		}
		return n
	}
	prev := int64(-1)
	base := collect(func(n int64) bool { settled := n == prev; prev = n; return settled })

	const heaps, kept = 1000, 10
	var keep []*Heap
	for i := 0; i < heaps; i++ {
		h := NewHeap(Config{})
		p, _, err := h.AllocRegion(1)
		if err != nil {
			t.Fatal(err)
		}
		h.Store(p, uint64(i))
		if i%2 == 1 {
			h.SetRegionHook(func(Ptr, uint64) { h.Stats() })
		}
		if i < kept {
			keep = append(keep, h)
		}
	}
	if got := collect(func(n int64) bool { return n <= base+kept }) - base; got != kept {
		t.Errorf("%d reservations live after dropping %d of %d heaps, want %d", got, heaps-kept, heaps, kept)
	}
	for i, h := range keep {
		if got := h.Load(PageWords); got != uint64(i) {
			t.Errorf("kept heap %d reads %d", i, got)
		}
	}
}
