package core

import (
	"testing"

	"repro/internal/atomicx"
	"repro/internal/partial"
	"repro/internal/sizeclass"
)

// mustPut inserts into a partial list, failing the test on pool
// exhaustion (impossible at test scale).
func mustPut(t *testing.T, l partial.List, v uint64) {
	t.Helper()
	if err := l.Put(v); err != nil {
		t.Fatal(err)
	}
}

// mkDesc manufactures a descriptor with a real superblock in the given
// state (test-only; bypasses the malloc paths).
func mkDesc(t *testing.T, a *Allocator, state uint64) uint64 {
	t.Helper()
	idx, err := a.descs.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	d := a.desc(idx)
	cls := sizeclass.ByIndex(0)
	sb, _, err := a.heap.AllocRegion(cls.SBWords)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i < cls.MaxCount; i++ {
		a.heap.Store(sb.Add(i*cls.BlockWords), i+1)
	}
	d.sb.Store(uint64(sb))
	d.szWords.Store(cls.BlockWords)
	d.szMagic.Store(^uint64(0)/cls.BlockWords + 1)
	d.maxCount.Store(cls.MaxCount)
	d.heapID.Store(0)
	count := uint64(0)
	if state == atomicx.StatePartial {
		count = cls.MaxCount - 2
	}
	d.Anchor.Store(atomicx.Anchor{Avail: 1, Count: count, State: state}.Pack())
	if state == atomicx.StateEmpty {
		a.heap.FreeRegion(sb, cls.SBWords)
	}
	return idx
}

// TestListRemoveEmptyDescRetiresHead: an EMPTY descriptor at the list
// head is dequeued and retired.
func TestListRemoveEmptyDescRetiresHead(t *testing.T) {
	a := New(testConfig())
	sc := &a.classes[0]
	empty := mkDesc(t, a, atomicx.StateEmpty)
	mustPut(t, sc.partial, empty)
	before := a.descs.Retired()
	a.Thread().listRemoveEmptyDesc(sc)
	if got := a.descs.Retired(); got != before+1 {
		t.Errorf("retired count %d -> %d, want +1", before, got)
	}
	if sc.partial.Len() != 0 {
		t.Error("list not emptied")
	}
}

// TestListRemoveEmptyDescSkipsNonEmpty: a PARTIAL head is re-enqueued
// (moved to the tail), and an EMPTY descriptor behind it is found and
// retired.
func TestListRemoveEmptyDescSkipsNonEmpty(t *testing.T) {
	a := New(testConfig())
	sc := &a.classes[0]
	partial := mkDesc(t, a, atomicx.StatePartial)
	empty := mkDesc(t, a, atomicx.StateEmpty)
	mustPut(t, sc.partial, partial)
	mustPut(t, sc.partial, empty)
	a.Thread().listRemoveEmptyDesc(sc)
	// The partial descriptor must still be in the list; the empty one
	// must be gone.
	v, ok := sc.partial.Get()
	if !ok || v != partial {
		t.Fatalf("list head = (%d, %v), want partial desc %d", v, ok, partial)
	}
	if _, ok := sc.partial.Get(); ok {
		t.Error("empty descriptor still present")
	}
}

// TestListRemoveEmptyDescBoundedWork: with only non-empty descriptors,
// the routine moves at most two and stops (the half-empty guarantee's
// work bound).
func TestListRemoveEmptyDescBoundedWork(t *testing.T) {
	a := New(testConfig())
	sc := &a.classes[0]
	var descs []uint64
	for i := 0; i < 5; i++ {
		d := mkDesc(t, a, atomicx.StatePartial)
		descs = append(descs, d)
		mustPut(t, sc.partial, d)
	}
	a.Thread().listRemoveEmptyDesc(sc)
	if got := sc.partial.Len(); got != 5 {
		t.Errorf("list length = %d, want 5 (nothing removed)", got)
	}
	// Order: first two moved to tail.
	want := append(append([]uint64{}, descs[2:]...), descs[0], descs[1])
	for i, w := range want {
		v, ok := sc.partial.Get()
		if !ok || v != w {
			t.Fatalf("position %d: got (%d, %v), want %d", i, v, ok, w)
		}
	}
}

// TestAnchorTagWraparound: operations keep working when the anchor tag
// is about to wrap its 42-bit field (the paper requires only that
// wraparound is rare, not that it never happens).
func TestAnchorTagWraparound(t *testing.T) {
	cfg := testConfig()
	cfg.Processors = 1
	a := New(cfg)
	th := a.Thread()
	p, err := th.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	desc := a.desc(prefixDesc(a.heap.Load(p - 1)))
	// Push the tag to the edge of its field.
	for {
		w := desc.Anchor.Load()
		an := atomicx.UnpackAnchor(w)
		an.Tag = atomicx.AnchorTagMask - 1
		if desc.Anchor.CompareAndSwap(w, an.Pack()) {
			break
		}
	}
	// A few pairs wrap the tag through zero.
	for i := 0; i < 10; i++ {
		q, err := th.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		th.Free(q)
	}
	th.Free(p)
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestHeapGetPartialPrefersSlot: the most-recently-used Partial slot
// is consumed before the size-class list (§3.2.6's locality argument).
func TestHeapGetPartialPrefersSlot(t *testing.T) {
	a := New(testConfig())
	th := a.Thread()
	sc := &a.classes[0]
	h := &sc.heaps[0]
	inList := mkDesc(t, a, atomicx.StatePartial)
	inSlot := mkDesc(t, a, atomicx.StatePartial)
	mustPut(t, sc.partial, inList)
	h.Partial.Store(inSlot)
	if got := th.heapGetPartial(h); got != inSlot {
		t.Errorf("got %d, want slot desc %d", got, inSlot)
	}
	if got := th.heapGetPartial(h); got != inList {
		t.Errorf("got %d, want list desc %d", got, inList)
	}
	if got := th.heapGetPartial(h); got != 0 {
		t.Errorf("got %d from exhausted heap", got)
	}
}
