package core

// Thread-local magazines: an opt-in batched caching layer in front of
// the paper's shared structures (Config.MagazineSize).
//
// The paper's hot paths pay at least one shared CAS per malloc (the
// Active word) and one per free (the anchor word). A magazine is a
// small per-thread, per-size-class stack of block pointers that a
// thread owns exclusively: a malloc that hits the magazine and a free
// that fits under its high watermark touch no shared word at all. The
// shared structures are updated only in batches:
//
//   - Refill (magazine miss): one Active-word CAS reserves up to
//     MaxCredits blocks at once — the paper's credits mechanism already
//     expresses multi-block reservation, the paper just never takes
//     more than one — and the anchor pops for the whole batch then run
//     back-to-back while the descriptor's cache line is hot. k blocks
//     cost 1 Active CAS + k anchor CASes instead of k of each.
//
//   - Flush (high watermark): the cached blocks are grouped by owning
//     superblock, each group is linked into a chain through the blocks'
//     first words (plain heap stores, no contention — the thread still
//     owns the blocks), and the whole chain is spliced onto the
//     anchor's LIFO free list with a single CAS per superblock, by the
//     same routine (release, Figure 6 lines 7-23) that frees one block.
//
// Lock-freedom is unaffected: magazines are thread-private (no new
// shared-state loops), and every new CAS loop (batch reserve, batch
// pop, batch splice) retries only because some other thread made
// progress through the same word, exactly like the loops it batches.
// The cost is bounded memory blowup: at most MagazineSize blocks per
// size class per thread are held outside the shared structures, and
// Unregister returns them. See DESIGN.md ("Magazine layer").

import (
	"math/bits"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// magazine is one thread's private cache of blocks for one size class:
// a LIFO stack, buf[:n], so the most recently freed block is reused
// first. Only the owning thread touches it; blocks it holds are, from
// the shared structures' point of view, simply allocated.
//
// n is the stack index and the only count of cached blocks. The owner
// stores it with atomicx.PlainStore once per mutation, after the slots
// it covers are written, and the census loads it atomically: a reader
// needs some count the owner stored, not an ordering with the slots,
// so a magazine hit pair takes no locked instruction.
type magazine struct {
	buf []mem.Ptr // MagazineSize slots, allocated on first use
	n   uint64
}

// pop takes the hottest cached block, or 0.
func (m *magazine) pop() mem.Ptr {
	n := m.n
	if n == 0 {
		return 0
	}
	n--
	atomicx.PlainStore(&m.n, n)
	return m.buf[n]
}

// magazinePut caches a freed block, flushing half the magazine back to
// the shared structures when the high watermark is reached.
func (t *Thread) magazinePut(cls int, ptr mem.Ptr) {
	mag := &t.mags[cls]
	if mag.buf == nil {
		mag.buf = make([]mem.Ptr, t.magCap)
	}
	n := mag.n
	mag.buf[n] = ptr
	n++
	atomicx.PlainStore(&mag.n, n)
	if n >= uint64(t.magCap) {
		t.flushMagazine(cls, t.magCap/2)
	}
}

// refillFromActive is the batched MallocFromActive: a single CAS on the
// heap's Active word reserves a batch of blocks (instead of the paper's
// one), then the reserved blocks are popped from the anchor
// back-to-back. The first popped block is returned to satisfy the
// current malloc; the rest go into the magazine. Returns 0 when Active
// is NULL (the caller falls back to the paper's partial/new-superblock
// paths for a single block).
func (t *Thread) refillFromActive(h *ProcHeap, mag *magazine) mem.Ptr {
	a := t.a
	// A refill takes the block being allocated plus half a magazine,
	// leaving room for subsequent frees before the next flush; one
	// Active CAS can reserve at most MaxCredits blocks.
	want := min(uint64(t.magCap/2)+1, a.maxCredits)
	// Batch reserve: credits+1 blocks are reservable through the Active
	// word; take k of them in one CAS. k < credits+1 is a plain packed
	// decrement by k; k == credits+1 takes the last credit and sets
	// Active to NULL, so the last pop is Figure 4's popLastCredit.
	var oldWord, k uint64
	for {
		oldWord = h.Active.Load()
		if oldWord == 0 {
			return 0 // Active is NULL
		}
		avail := oldWord&atomicx.ActiveCreditsMask + 1
		k = min(want, avail)
		var newWord uint64
		if k < avail {
			newWord = oldWord - k // credits -= k
		} // else NULL: this thread takes the last credit
		if h.Active.CompareAndSwap(oldWord, newWord) {
			break
		}
		t.rec.Retry(telemetry.SiteMagRefillReserve)
	}
	oldActive := atomicx.UnpackActive(oldWord)
	t.hook(HookMagRefillAfterReserve)
	desc := a.desc(oldActive.Desc)
	sb := desc.SB()
	sz := desc.Size()
	tookLast := k == oldActive.Credits+1

	if mag.buf == nil {
		mag.buf = make([]mem.Ptr, t.magCap)
	}
	// The pops fill the slots above the stack index; n is stored once,
	// after the last pop, so a kill at a hook point in between leaks the
	// popped blocks exactly as it leaks the reservations, and the census
	// never counts a slot that is not yet the magazine's.
	n := mag.n
	var ret mem.Ptr
	for i := uint64(0); i < k; i++ {
		var addr mem.Ptr
		if tookLast && i == k-1 {
			addr = t.popLastCredit(h, desc, oldActive.Desc, telemetry.SiteMagRefillPop)
		} else {
			// Common pop: credits remain on the Active word, so only
			// avail and tag change (Figure 4 lines 7-12); the anchor
			// line stays hot across the whole batch.
			for {
				w := desc.Anchor.Load()
				addr = sb.Add((w & atomicx.AnchorAvailMask) * sz)
				nw := (w &^ uint64(atomicx.AnchorAvailMask)) | prefixLink(a.heap.Load(addr))
				nw += 1 << atomicx.AnchorTagShift // tag++
				if desc.Anchor.CompareAndSwap(w, nw) {
					break
				}
				t.rec.Retry(telemetry.SiteMagRefillPop)
			}
		}
		if i == 0 {
			ret = addr.Add(1)
		} else {
			mag.buf[n] = addr.Add(1)
			n++
		}
	}
	atomicx.PlainStore(&mag.n, n)
	return ret
}

// flushMagazine returns cached blocks of one class to their superblocks
// until at most keep remain. The oldest (coldest) blocks go first. Each
// iteration takes the oldest block's superblock group, links it locally
// through the blocks' first words, and splices the chain with one
// anchor CAS.
func (t *Thread) flushMagazine(cls, keep int) {
	a := t.a
	mag := &t.mags[cls]
	for mag.n > uint64(keep) {
		blocks := mag.buf[:mag.n]
		n := len(blocks) - keep
		descIdx := prefixDesc(a.heap.Load(blocks[0] - 1))
		// Collect the group (same superblock, within the flush window)
		// and compact the survivors in place. The group is removed from
		// the magazine before the splice so that a thread killed
		// mid-splice leaks the group instead of double-accounting it.
		group := t.magScratch[:0]
		rest := blocks[:0]
		for i, p := range blocks {
			if i < n && prefixDesc(a.heap.Load(p-1)) == descIdx {
				group = append(group, p)
			} else {
				rest = append(rest, p)
			}
		}
		// Count stored before the splice: a thread killed inside
		// spliceGroup leaves the group outside buf[:n], so a concurrent
		// census never double-counts the in-flight group.
		atomicx.PlainStore(&mag.n, uint64(len(rest)))
		t.magScratch = group[:0] // retain scratch capacity across flushes
		t.spliceGroup(descIdx, group)
	}
}

// spliceGroup returns a group of blocks of one superblock with one
// anchor CAS: it links them into a chain through their first words
// (stores into blocks this thread still owns; the tail's link depends on
// the anchor and is release's to write) and hands the chain to Figure 6.
func (t *Thread) spliceGroup(descIdx uint64, group []mem.Ptr) {
	a := t.a
	desc := a.desc(descIdx)
	sb := desc.SB()
	magic := desc.szMagic.Load()
	idxOf := func(p mem.Ptr) uint64 {
		hi, _ := bits.Mul64((p - 1).Sub(sb), magic)
		return hi
	}
	prefix := smallPrefix(descIdx)
	for j := 0; j < len(group)-1; j++ {
		a.heap.Store(group[j]-1, withLink(prefix, idxOf(group[j+1])))
	}
	m := uint64(len(group))
	t.release(descIdx, idxOf(group[0]), group[m-1]-1, m, HookMagFlushBeforeSplice, telemetry.SiteMagFlush)
	t.ops.magFlushes.Add(1)
	t.ops.magFlushedBlocks.Add(m)
}

// FlushMagazines returns every magazine-cached block to its superblock.
// Useful before a long quiet period. Like Malloc and Free it must only
// be called by the owning goroutine.
func (t *Thread) FlushMagazines() {
	for cls := range t.mags {
		if t.mags[cls].n > 0 {
			t.flushMagazine(cls, 0)
		}
	}
}

// Unregister releases the thread handle: all magazine-cached blocks
// return to the shared structures and the magazine layer is disabled
// for this handle; its operation counters stay visible in
// Allocator.Stats. Call it when the owning goroutine stops using the
// handle (the pthread-exit analogue): a handle dropped with magazines
// holding blocks strands them.
//
// Unregister is idempotent, and the handle remains usable afterwards:
// subsequent Malloc/Free bypass the magazines and go straight to the
// shared structures, so a straggling Free cannot strand a block in a
// cache nobody will ever flush.
func (t *Thread) Unregister() {
	t.FlushMagazines()
	// Disabling the layer (rather than leaving the empty magazines
	// armed) makes double-Unregister and use-after-Unregister safe by
	// construction: there is no cache left to corrupt or leak into.
	t.magCap = 0
}
