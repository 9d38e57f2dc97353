package core

import (
	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// release is Figure 6 lines 7-23 for a chain of m >= 1 blocks of one
// superblock, linked through their first words: first is the head's
// block index, tail the last block, whose link this loop writes. free's
// slow path passes one block, a magazine flush a whole group. hook and
// site name the caller at the CAS: they are the only thing that differs.
func (t *Thread) release(descIdx, first uint64, tail mem.Ptr, m uint64, hook HookPoint, site telemetry.Site) {
	a := t.a
	desc := a.desc(descIdx)
	sb := desc.SB()
	maxcount := desc.MaxCount()
	prefix := smallPrefix(descIdx)

	var oldAnchor, newAnchor atomicx.Anchor
	var heapID uint64
	for {
		oldWord := desc.Anchor.Load()
		oldAnchor = atomicx.UnpackAnchor(oldWord) // line 7
		newAnchor = oldAnchor
		// Push the chain onto the superblock's LIFO list: its tail links
		// to the previous head (line 8), avail points at its head (line 9).
		a.heap.Store(tail, withLink(prefix, oldAnchor.Avail))
		newAnchor.Avail = first
		if oldAnchor.State == atomicx.StateFull { // lines 10-11
			newAnchor.State = atomicx.StatePartial
		}
		if oldAnchor.Count+m == maxcount { // line 12
			// The chain holds every block still allocated, and count+m ==
			// maxcount leaves no reservation outstanding. An EMPTY anchor
			// keeps count at maxcount-1, whatever m was.
			heapID = desc.heapID.Load()          // line 13
			atomicx.InstructionFence()           // line 14
			newAnchor.State = atomicx.StateEmpty // line 15
			newAnchor.Count = maxcount - 1
		} else {
			newAnchor.Count += m // line 16
		}
		atomicx.Fence() // line 17: publish the link stores before the CAS
		t.hook(hook)
		if desc.Anchor.CompareAndSwap(oldWord, newAnchor.Pack()) { // line 18
			break
		}
		t.rec.Retry(site)
	}

	if newAnchor.State == atomicx.StateEmpty { // lines 19-21
		// This thread freed the last allocated block: the superblock
		// is EMPTY and safe to return to the OS.
		a.freeSB(sb, a.classes[desc.ClassIndex()].class.SBWords)
		t.ops.emptySBFreed.Add(1)
		t.rec.Note(telemetry.EvSBRetire, desc.ClassIndex(), uint64(sb))
		t.hook(HookFreeBeforeRetire)
		if oldAnchor.State == atomicx.StateFull {
			// The chain was the whole superblock, a transition one block
			// cannot make. A FULL superblock is in no Partial slot and no
			// list, where RemoveEmptyDesc would look for it and where
			// nobody will put it now: this thread holds the last
			// reference to the descriptor.
			a.descs.Retire(t.stripe(), descIdx)
		} else {
			t.removeEmptyDesc(heapID, descIdx)
		}
	} else if oldAnchor.State == atomicx.StateFull { // lines 22-23
		// First free into a FULL superblock: this thread takes
		// responsibility for linking it back into the allocator
		// structures.
		t.hook(HookFreeBeforePutPartial)
		t.heapPutPartial(descIdx)
	}
}
