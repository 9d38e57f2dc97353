package core

import (
	"math/bits"
	"time"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/sizeclass"
	"repro/internal/telemetry"
)

// sizeclassFor maps a payload size to a size-class index.
func sizeclassFor(size uint64) (int, bool) {
	return sizeclass.IndexFor(size)
}

// Free returns a block allocated by Malloc (paper Figure 6). Freeing
// the nil pointer is a no-op. Free is lock-free and may be called by
// any thread, not just the allocating one. Like Malloc, it counts every
// free by its size class, and with a recorder attached hands the one
// that is due to freeTimed, which times it.
func (t *Thread) Free(ptr mem.Ptr) {
	if ptr.IsNil() { // line 1
		return
	}
	if t.rec == nil {
		t.free(ptr, t.a.heap.Load(ptr-1)) // line 2: get prefix
		return
	}
	if t.due(&t.freeTick) {
		t.freeTimed(ptr)
		return
	}
	t.free(ptr, t.a.heap.Load(ptr-1))
}

// freeTimed is Free on a free that is due.
func (t *Thread) freeTimed(ptr mem.Ptr) {
	t.freeTick = telemetry.Interval
	start := telemetry.Now()
	cls := t.free(ptr, t.a.heap.Load(ptr-1))
	t.rec.EndFree(cls, time.Duration(telemetry.Now()-start))
}

// free releases a non-nil block whose prefix the caller has already
// loaded (Free and freeTimed resolve it exactly once), counts it, and
// returns its size class (-1 for a large block).
func (t *Thread) free(ptr mem.Ptr, prefix uint64) int {
	a := t.a
	block := ptr - 1
	if prefixIsLarge(prefix) { // line 4
		// Large block: return directly to the OS layer (line 5).
		a.heap.LargeFree(ptr, mem.SizePrefixWords(prefix))
		t.counts.Count(telemetry.PathFree, -1)
		return -1
	}
	descIdx := prefixDesc(prefix)
	desc := a.desc(descIdx) // line 3
	cls := desc.ClassIndex()
	if t.magCap != 0 {
		// Magazine path: cache the block thread-locally; the shared
		// anchor is only touched when a flush splices a whole batch.
		t.magazinePut(cls, ptr)
		t.counts.Count(telemetry.PathFree, cls)
		return cls
	}
	sb := desc.SB() // line 6
	maxcount := desc.MaxCount()
	// line 9: this block's index, offset/size via the precomputed
	// reciprocal (exact within a superblock).
	idx, _ := bits.Mul64(block.Sub(sb), desc.szMagic.Load())

	// Fast path: the superblock stays in its current state (not FULL,
	// not about to become EMPTY); only avail, count, and the link word
	// change. Operates on the packed anchor word directly.
	for {
		w := desc.Anchor.Load()
		if w>>atomicx.AnchorStateShift&atomicx.AnchorStateMask == atomicx.StateFull ||
			w>>atomicx.AnchorCountShift&atomicx.AnchorCountMask == maxcount-1 {
			break // slow path below
		}
		a.heap.Store(block, withLink(prefix, w&atomicx.AnchorAvailMask)) // line 8: link to old head
		nw := (w &^ uint64(atomicx.AnchorAvailMask)) | idx
		nw += 1 << atomicx.AnchorCountShift // count++
		t.hook(HookFreeBeforeCAS)
		if desc.Anchor.CompareAndSwap(w, nw) {
			t.counts.Count(telemetry.PathFree, cls)
			return cls
		}
		t.rec.Retry(telemetry.SiteFreeFast)
	}

	t.release(descIdx, idx, block, 1, HookFreeBeforeCAS, telemetry.SiteFreeSlow)
	t.counts.Count(telemetry.PathFree, cls)
	return cls
}

// heapPutPartial is Figure 6's HeapPutPartial: atomically swap the
// descriptor into the Partial slot of the heap that last owned the
// superblock; a displaced previous occupant moves to the size class's
// partial list.
func (t *Thread) heapPutPartial(descIdx uint64) {
	a := t.a
	desc := a.desc(descIdx)
	h := a.procHeap(desc.heapID.Load())
	sc := a.classOf(h)
	if a.cfg.NoPartialSlot {
		t.listPutPartial(sc, descIdx)
		return
	}
	var prev uint64
	for { // lines 1-2
		prev = h.Partial.Load()
		if h.Partial.CompareAndSwap(prev, descIdx) {
			break
		}
		t.rec.Retry(telemetry.SitePartialSlot)
	}
	if prev != 0 { // line 3
		t.listPutPartial(sc, prev) // ListPutPartial
	}
}

// listPutPartial inserts a descriptor into the size class's partial
// list. The only failure is node-pool exhaustion (pool.ErrExhausted),
// which the free path has no way to report; the descriptor is dropped
// instead — its superblock's live blocks stay freeable through their
// prefixes, only the unallocated remainder is leaked — and counted, so
// the condition is observable. The pre-pool implementation panicked.
func (t *Thread) listPutPartial(sc *scState, descIdx uint64) {
	if err := sc.partial.Put(descIdx); err != nil {
		t.ops.partialListDrops.Add(1)
	}
}

// removeEmptyDesc is Figure 6's RemoveEmptyDesc: retire the descriptor
// if it can be removed from the heap's Partial slot with a single CAS;
// otherwise ask the size class's list to shed an empty descriptor.
//
// The slot CAS compares an index, not a lifetime: between this thread's
// EMPTY transition and the CAS, a malloc can take the descriptor from
// the slot, retire it (Figure 4's MallocFromPartial line 6), and a new
// superblock reuse it and land PARTIAL in the same slot. A descriptor
// the CAS took that is not EMPTY is that new superblock's, and goes
// back instead of being retired under its live blocks.
func (t *Thread) removeEmptyDesc(heapID, descIdx uint64) {
	a := t.a
	h := a.procHeap(heapID)
	if !a.cfg.NoPartialSlot && h.Partial.CompareAndSwap(descIdx, 0) { // line 1
		if atomicx.UnpackAnchor(a.desc(descIdx).Anchor.Load()).State != atomicx.StateEmpty {
			t.heapPutPartial(descIdx)
			return
		}
		a.descs.Retire(t.stripe(), descIdx) // line 2
		return
	}
	t.listRemoveEmptyDesc(a.classOf(h)) // line 3
}

// listRemoveEmptyDesc is the FIFO-list variant of ListRemoveEmptyDesc
// (§3.2.6): dequeue from the head until an empty descriptor is removed
// (and retired) or the end of the list is reached; a dequeued non-empty
// descriptor is re-enqueued at the tail. Moving at most two non-empty
// descriptors per call bounds the empty fraction of the list at one
// half. The goal is only that empty descriptors are *eventually*
// recycled, not that this particular one is removed now.
func (t *Thread) listRemoveEmptyDesc(sc *scState) {
	a := t.a
	for moved := 0; moved < 2; {
		descIdx, ok := sc.partial.Get()
		if !ok {
			return
		}
		desc := a.desc(descIdx)
		if atomicx.UnpackAnchor(desc.Anchor.Load()).State == atomicx.StateEmpty {
			a.descs.Retire(t.stripe(), descIdx)
			return
		}
		t.listPutPartial(sc, descIdx)
		moved++
	}
}
