package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/atomicx"
)

// CheckInvariants validates allocator-wide structural invariants. It
// must only be called while the allocator is quiescent (no concurrent
// Malloc/Free in flight); it is a test and diagnostic aid, not part of
// the lock-free algorithm.
//
// expectLive, if non-negative, is the number of small blocks the caller
// believes are currently allocated; the checker confirms it against the
// descriptor statistics.
//
// Checked invariants:
//   - every heap's Active word names a descriptor in ACTIVE state whose
//     heapID is that heap, with credits+1 <= available reservations;
//   - every descriptor's anchor fields are within range;
//   - each non-EMPTY superblock's free list is acyclic, in-bounds, and
//     exactly count+reserved long, and every block on it carries its
//     descriptor's prefix — its index and class — beside the link;
//   - a remote stack is the zero word (closed) or open on an ACTIVE
//     superblock, and holds its count of free blocks from head to tail,
//     as the free list does, on neither the free list nor a magazine;
//   - every magazine-cached block has a valid small-block prefix that
//     carries its descriptor's class, sits in that class's magazine, is
//     cached exactly once, belongs to a non-EMPTY superblock, and does
//     not also appear on that superblock's free list;
//   - the sum over descriptors of allocated blocks equals expectLive
//     plus the blocks held in thread magazines (a cached block is
//     allocated from the shared structures' point of view).
func (a *Allocator) CheckInvariants(expectLive int64) error {
	magBlocks, totalMag, err := a.magazineScan()
	if err != nil {
		return err
	}
	// reserved[desc] = blocks reserved through some heap's Active word.
	reserved := make(map[uint64]uint64)
	for ci := range a.classes {
		sc := &a.classes[ci]
		for pi := range sc.heaps {
			h := &sc.heaps[pi]
			act := atomicx.UnpackActive(h.Active.Load())
			if act.IsNull() {
				continue
			}
			desc := a.desc(act.Desc)
			anchor := atomicx.UnpackAnchor(desc.Anchor.Load())
			if anchor.State != atomicx.StateActive {
				return fmt.Errorf("heap %d Active names desc %d in state %s",
					h.id, act.Desc, atomicx.StateName(anchor.State))
			}
			if desc.HeapID() != h.id {
				return fmt.Errorf("heap %d Active names desc %d owned by heap %d",
					h.id, act.Desc, desc.HeapID())
			}
			if _, dup := reserved[act.Desc]; dup {
				return fmt.Errorf("desc %d installed as Active in two heaps", act.Desc)
			}
			reserved[act.Desc] = act.Credits + 1
		}
	}

	// Descriptor-pool accounting: every index in [First, Limit) was
	// carved by grow, so the pool's allocated counter must cover the
	// range exactly; the freelist walk must agree with the retired
	// counter; and a freelisted descriptor must be EMPTY (or never
	// initialized) — a live superblock's descriptor can never be
	// retired. A descriptor found on the freelist twice (a cycle in its
	// links) ends the walk with an error.
	freeDescs, err := a.descs.FreeIndices()
	if err != nil {
		return fmt.Errorf("descriptor freelist: %w", err)
	}
	limit := a.descs.Limit()
	if got, want := a.descs.Allocated(), limit-a.descs.First(); got != want {
		return fmt.Errorf("desc pool: allocated counter %d, index range holds %d", got, want)
	}
	if got, want := uint64(len(freeDescs)), a.descs.Retired(); got != want {
		return fmt.Errorf("desc pool: retired descriptors number %d, retired counter says %d", got, want)
	}

	var totalAllocated int64
	for idx := uint64(descChunk); idx < limit; idx++ {
		desc := a.desc(idx)
		anchor := atomicx.UnpackAnchor(desc.Anchor.Load())
		if freeDescs[idx] && desc.MaxCount() != 0 && anchor.State != atomicx.StateEmpty {
			return fmt.Errorf("desc %d is on the freelist in state %s",
				idx, atomicx.StateName(anchor.State))
		}
		if desc.MaxCount() == 0 {
			continue // never initialized
		}
		maxcount := desc.MaxCount()
		remote := desc.remote.Load()
		if remote != 0 && (remote&remoteOpen == 0 || anchor.State != atomicx.StateActive) {
			return fmt.Errorf("desc %d: remote stack word %#x on a %s superblock",
				idx, remote, atomicx.StateName(anchor.State))
		}
		if anchor.State == atomicx.StateEmpty {
			if n := len(magBlocks[idx]); n > 0 {
				return fmt.Errorf("desc %d is EMPTY but %d of its blocks are magazine-cached", idx, n)
			}
			continue // retired or about to be; superblock returned to OS
		}
		if anchor.Avail >= maxcount && anchor.Count+reserved[idx] > 0 {
			return fmt.Errorf("desc %d: avail %d out of range (maxcount %d, state %s)",
				idx, anchor.Avail, maxcount, atomicx.StateName(anchor.State))
		}
		if anchor.Count > maxcount-1 {
			return fmt.Errorf("desc %d: count %d exceeds maxcount-1 (%d)",
				idx, anchor.Count, maxcount-1)
		}
		res := reserved[idx]
		free := anchor.Count + res
		if free > maxcount {
			return fmt.Errorf("desc %d: count %d + reserved %d exceeds maxcount %d",
				idx, anchor.Count, res, maxcount)
		}
		// Walk the free list and the remote stack, disjoint.
		seen := make(map[uint64]bool, free)
		if _, err := a.walkChain(idx, desc, "free list", anchor.Avail, free, seen, magBlocks[idx]); err != nil {
			return err
		}
		stacked := remote & remoteCountMask
		last, err := a.walkChain(idx, desc, "remote stack", remoteHead(remote), stacked, seen, magBlocks[idx])
		if err != nil {
			return err
		}
		if stacked > 0 && last != remoteTail(remote) {
			return fmt.Errorf("desc %d: remote stack ends at block %d, not its tail %d", idx, last, remoteTail(remote))
		}
		totalAllocated += int64(maxcount - free - stacked)
	}

	if expectLive >= 0 && totalAllocated != expectLive+totalMag {
		return fmt.Errorf("allocated blocks: descriptors say %d, caller says %d live + %d magazine-cached",
			totalAllocated, expectLive, totalMag)
	}
	return nil
}

// magazineScan validates every thread's magazine-cached blocks and
// indexes them by descriptor: magBlocks[desc] is the set of block
// indices cached in some magazine, totalMag their total count. The
// thread-list mutex is released via defer, so no error path can leave
// the allocator locked.
func (a *Allocator) magazineScan() (magBlocks map[uint64]map[uint64]bool, totalMag int64, err error) {
	magBlocks = make(map[uint64]map[uint64]bool)
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, t := range a.threads {
		for cls := range t.mags {
			mag := &t.mags[cls]
			for _, p := range mag.buf[:atomic.LoadUint64(&mag.n)] {
				prefix := a.heap.Load(p - 1)
				if prefixIsLarge(prefix) {
					return nil, 0, fmt.Errorf("thread %d magazine class %d caches %#x with large-block prefix", t.id, cls, p)
				}
				descIdx := prefixDesc(prefix)
				desc := a.desc(descIdx)
				if desc.ClassIndex() != cls {
					return nil, 0, fmt.Errorf("thread %d magazine class %d caches %#x of class %d", t.id, cls, p, desc.ClassIndex())
				}
				if prefixClass(prefix) != cls {
					return nil, 0, fmt.Errorf("thread %d magazine class %d caches %#x whose prefix names class %d", t.id, cls, p, prefixClass(prefix))
				}
				hi, _ := bits.Mul64((p - 1).Sub(desc.SB()), desc.szMagic.Load())
				set := magBlocks[descIdx]
				if set == nil {
					set = make(map[uint64]bool)
					magBlocks[descIdx] = set
				}
				if set[hi] {
					return nil, 0, fmt.Errorf("desc %d block %d cached in two magazines", descIdx, hi)
				}
				set[hi] = true
				totalMag++
			}
		}
	}
	return magBlocks, totalMag, nil
}

// walkChain follows n blocks of desc's superblock from first through
// their prefix links, adding each to seen, and returns the last.
func (a *Allocator) walkChain(idx uint64, desc *Descriptor, what string, first, n uint64, seen, mag map[uint64]bool) (uint64, error) {
	maxcount := desc.MaxCount()
	sb := desc.SB()
	sz := desc.Size()
	cur, last := first, first
	for i := uint64(0); i < n; i++ {
		if cur >= maxcount {
			return 0, fmt.Errorf("desc %d (%s): %s index %d out of range after %d steps",
				idx, atomicx.StateName(atomicx.UnpackAnchor(desc.Anchor.Load()).State), what, cur, i)
		}
		if seen[cur] {
			return 0, fmt.Errorf("desc %d: block %d is twice on the free list or remote stack (%s)", idx, cur, what)
		}
		if mag[cur] {
			return 0, fmt.Errorf("desc %d: block %d is both on the %s and magazine-cached", idx, cur, what)
		}
		seen[cur] = true
		// Malloc hands the block out without writing it, so the prefix
		// it will be freed through must already be in place.
		w := a.heap.Load(sb.Add(cur * sz))
		if prefixIsLarge(w) || prefixDesc(w) != idx || prefixClass(w) != desc.ClassIndex() {
			return 0, fmt.Errorf("desc %d: block %d on the %s carries prefix %#x, not its descriptor's", idx, cur, what, w)
		}
		last, cur = cur, prefixLink(w)
	}
	return last, nil
}
