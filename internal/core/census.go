package core

// Census walk primitives: lock-free, racy-consistent views over the
// allocator's shared structures, consumed by internal/census. Unlike
// CheckInvariants these are safe to run while malloc/free churn —
// every value is read with a single atomic load (the anchor unpack
// reads one word), so a walk observes each structure at *some* instant,
// never a torn state. Cross-structure identities (e.g. used + free ==
// maxcount summed with Active reservations) hold exactly only at
// quiescence; a live walk can be off by in-flight operations.

import (
	"sync/atomic"

	"repro/internal/atomicx"
)

// SuperblockInfo describes one initialized superblock descriptor as
// observed by WalkSuperblocks.
type SuperblockInfo struct {
	// Desc is the descriptor index; Class the size-class index.
	Desc  uint64
	Class int
	// State is the anchor state (atomicx.StateActive/Full/Partial/
	// Empty), Avail the free-list head, FreeCount the anchor's count
	// field (blocks on the free list not reserved through an Active
	// word), all from one atomic anchor load.
	State     uint64
	Avail     uint64
	FreeCount uint64
	// Remote is the count of the remote stack (remote.go): free blocks
	// not yet spliced onto the free list, loaded after the anchor.
	Remote uint64
	// MaxCount is the superblock's block capacity; HeapID the
	// processor heap that last owned it.
	MaxCount uint64
	HeapID   uint64
}

// WalkSuperblocks visits every initialized descriptor (EMPTY ones
// included — their superblocks are returned to the OS but the
// descriptor still exists until reuse). visit returning false stops the
// walk. Lock-free; see the package comment above for the consistency
// model.
func (a *Allocator) WalkSuperblocks(visit func(SuperblockInfo) bool) {
	limit := a.descs.Limit()
	for idx := a.descs.First(); idx < limit; idx++ {
		d := a.descs.TryGet(idx)
		if d == nil {
			continue // chunk mid-publication: no node handed out yet
		}
		maxcount := d.MaxCount()
		if maxcount == 0 {
			continue // never initialized
		}
		an := atomicx.UnpackAnchor(d.Anchor.Load())
		if !visit(SuperblockInfo{
			Desc:      idx,
			Class:     d.ClassIndex(),
			State:     an.State,
			Avail:     an.Avail,
			FreeCount: an.Count,
			Remote:    d.remote.Load() & remoteCountMask,
			MaxCount:  maxcount,
			HeapID:    d.HeapID(),
		}) {
			return
		}
	}
}

// ActiveInfo describes one processor heap's installed active
// superblock.
type ActiveInfo struct {
	// HeapID is the global processor-heap id; Class its size class.
	HeapID uint64
	Class  int
	// Desc is the active superblock's descriptor index; Credits the
	// Active word's credit field. Credits+1 blocks are reserved for
	// allocating threads but still sit on the superblock's free list
	// (they are neither used nor free from a census point of view).
	Desc    uint64
	Credits uint64
}

// WalkActive visits every non-NULL Active word. A census uses the
// reservations to split each superblock's free-list population into
// genuinely-free and reserved blocks.
func (a *Allocator) WalkActive(visit func(ActiveInfo)) {
	for ci := range a.classes {
		sc := &a.classes[ci]
		for pi := range sc.heaps {
			h := &sc.heaps[pi]
			act := atomicx.UnpackActive(h.Active.Load())
			if act.IsNull() {
				continue
			}
			visit(ActiveInfo{
				HeapID:  h.id,
				Class:   ci,
				Desc:    act.Desc,
				Credits: act.Credits,
			})
		}
	}
}

// MagazineCounts returns the number of magazine-cached blocks per size
// class, summed over all registered threads. Each magazine's count is
// its stack index, stored only by its owning thread and loaded here
// atomically, so the sum is safe (and exact per magazine) during churn;
// the thread-list mutex is held only to stabilize the registry slice.
func (a *Allocator) MagazineCounts() []uint64 {
	out := make([]uint64, len(a.classes))
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, t := range a.threads {
		for cls := range t.mags {
			out[cls] += atomic.LoadUint64(&t.mags[cls].n)
		}
	}
	return out
}

// PartialListLens returns each size class's partial-list length
// (racy-exact: the lists maintain an atomic length counter).
func (a *Allocator) PartialListLens() []int {
	out := make([]int, len(a.classes))
	for ci := range a.classes {
		out[ci] = a.classes[ci].partial.Len()
	}
	return out
}
