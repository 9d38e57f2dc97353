package core

// The remote stack (ALGORITHM.md deviation 15): a free by another heap
// into an installed superblock pushes the block onto a Treiber stack on
// the descriptor's second line, not onto the anchor the owner's pops
// CAS. The installer opens it before its Active CAS (mallocFromNewSB,
// updateActive); the thread that takes the last credit closes it and
// splices its blocks onto the anchor (popLastCredit). The only pop takes
// all, so a push has no ABA to guard.

import (
	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// The remote word: open bit | tail index | head index | count; zero is
// closed. The head links to the tail through the prefix link fields; the
// tail's link is release's to write.
const (
	remoteOpen      = 1 << 63
	remoteCountMask = 1<<atomicx.AnchorCountBits - 1
	remoteHeadShift = atomicx.AnchorCountBits
	remoteTailShift = remoteHeadShift + atomicx.AnchorAvailBits
)

func remoteHead(w uint64) uint64 { return w >> remoteHeadShift & atomicx.AnchorAvailMask }
func remoteTail(w uint64) uint64 { return w >> remoteTailShift & atomicx.AnchorAvailMask }

// pushRemote pushes block, of index idx, onto desc's remote stack,
// touching only its second line. It fails if the stack is closed, and
// reports the failed CASes for its caller to count.
func (t *Thread) pushRemote(desc *Descriptor, block mem.Ptr, prefix, idx uint64) (pushed bool, fails int) {
	for {
		w := desc.remote.Load()
		t.hook(HookFreeBeforePush)
		if w == 0 {
			return false, fails
		}
		nw := w&^(atomicx.AnchorAvailMask<<remoteHeadShift) | idx<<remoteHeadShift + 1
		if w&remoteCountMask == 0 {
			nw |= idx << remoteTailShift // the first block in is the tail
		}
		t.a.heap.Store(block, withLink(prefix, remoteHead(w)))
		if desc.remote.CompareAndSwap(w, nw) {
			return true, fails
		}
		fails++
	}
}

// closeRemote closes desc's remote stack and splices its blocks onto the
// anchor. The caller's reservation of the ACTIVE superblock keeps that
// splice from any state transition.
func (t *Thread) closeRemote(desc *Descriptor, descIdx uint64) {
	w := desc.remote.Swap(0)
	if m := w & remoteCountMask; m != 0 {
		tail := desc.SB().Add(remoteTail(w) * desc.Size())
		t.release(descIdx, remoteHead(w), tail, m, HookCloseBeforeSplice, telemetry.SiteFreeSlow)
		add(&t.ops.remoteSplices, 1)
	}
}
