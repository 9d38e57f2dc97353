package mem

import (
	"fmt"
	"sync/atomic"

	"repro/internal/atomicx"
	"repro/internal/lfstack"
)

// Hyper implements the paper's §3.2.5 hyperblock extension: "in order
// to reduce the frequency of calls to mmap and munmap, we allocate
// superblocks (e.g., 16 KB) in batches of (e.g., 1 MB) hyperblocks
// (superblocks of superblocks) and maintain descriptors for such
// hyperblocks, allowing them eventually to be returned to the OS. We
// organize the descriptor Anchor field in a slightly different manner,
// such that superblocks are not written until they are actually used."
//
// Superblocks are handed out by bumping a cursor inside the current
// hyperblock — an untouched superblock's memory is never written until
// its first use, the paper's swap-space optimization — and freed
// superblocks recycle through a lock-free stack. Alloc and Free are
// lock-free. Hyperblocks whose superblocks are all free again are
// returned to the OS by Scavenge, which (like the paper, which gives
// no concurrent algorithm for this path) runs at quiescent points.
//
// Hyperblocks are aligned to their own size, so a superblock's
// hyperblock descriptor is found by masking its address — the same
// trick the paper's block prefix plays for superblock descriptors,
// without writing a prefix into unused superblocks.
type Hyper struct {
	heap     *Heap
	sbWords  uint64
	perHyp   uint64
	hypWords uint64
	hypLog   uint

	// current is the packed bump state: base:40 | used:24. base is
	// the current hyperblock (0 = none); used counts superblocks
	// handed out of it.
	current atomic.Uint64

	// free is the global stack of freed superblocks, linked through
	// their first word (regionLinks).
	free lfstack.Stack

	// descs maps hyperblock index (base >> hypLog) to its descriptor.
	descs []atomic.Pointer[hyperDesc]

	allocs, frees, hyperAllocs, hyperReleases atomic.Uint64
}

type hyperDesc struct {
	base Ptr
	// freeCount tracks how many of this hyperblock's superblocks sit
	// on the free stack (incremented on Free, decremented when Alloc
	// pops one of its superblocks).
	freeCount atomic.Int64
	// bumped counts superblocks ever handed out of this hyperblock.
	bumped atomic.Uint64
}

const (
	hyperBaseBits = atomicx.TaggedIdxBits
	hyperBaseMask = 1<<hyperBaseBits - 1
)

// NewHyper creates a hyperblock layer serving superblocks of sbWords
// words in batches of perHyper. perHyper*sbWords must be a power of
// two times PageWords for alignment (the defaults — 2048-word
// superblocks, 64 per hyperblock — give 1 MiB hyperblocks).
func NewHyper(h *Heap, sbWords, perHyper uint64) *Hyper {
	hypWords := sbWords * perHyper
	if hypWords&(hypWords-1) != 0 {
		panic("mem: hyperblock size must be a power of two words")
	}
	if hypWords > h.segWords {
		panic("mem: hyperblock exceeds segment size")
	}
	log := uint(0)
	for 1<<log < hypWords {
		log++
	}
	return &Hyper{
		heap:     h,
		sbWords:  sbWords,
		perHyp:   perHyper,
		hypWords: hypWords,
		hypLog:   log,
		descs:    make([]atomic.Pointer[hyperDesc], h.maxWords>>log),
	}
}

func (hy *Hyper) desc(sb Ptr) *hyperDesc {
	d := hy.descs[uint64(sb)>>hy.hypLog].Load()
	if d == nil {
		panic(fmt.Sprintf("mem: superblock %v has no hyperblock descriptor", sb))
	}
	return d
}

// Alloc returns one superblock. Lock-free.
func (hy *Hyper) Alloc() (Ptr, error) {
	hy.allocs.Add(1)
	for {
		// Freed superblocks first.
		if sb := hy.popFree(); !sb.IsNil() {
			hy.desc(sb).freeCount.Add(-1)
			return sb, nil
		}
		// Bump from the current hyperblock.
		cur := hy.current.Load()
		base := Ptr(cur & hyperBaseMask)
		used := cur >> hyperBaseBits
		if !base.IsNil() && used < hy.perHyp {
			next := uint64(base) | (used+1)<<hyperBaseBits
			if hy.current.CompareAndSwap(cur, next) {
				hy.desc(base).bumped.Add(1)
				return base.Add(used * hy.sbWords), nil
			}
			continue
		}
		// Current exhausted (or none): install a fresh hyperblock.
		nb, err := hy.newHyperblock()
		if err != nil {
			return 0, err
		}
		// Take slot 0 for ourselves; install with used=1.
		if hy.current.CompareAndSwap(cur, uint64(nb)|1<<hyperBaseBits) {
			hy.desc(nb).bumped.Add(1)
			return nb, nil
		}
		// Lost the install race: return the pristine hyperblock to the
		// OS (the paper's MallocFromNewSB policy, one level up).
		hy.releaseHyperblock(nb)
	}
}

// Free returns a superblock obtained from Alloc. Lock-free.
func (hy *Hyper) Free(sb Ptr) {
	hy.frees.Add(1)
	// The superblock's words become reusable by a later Alloc
	// without passing through FreeRegion, so fire the recycle hook here.
	hy.heap.noteRecycled(sb, hy.sbWords)
	hy.pushFree(sb)
	hy.desc(sb).freeCount.Add(1)
}

func (hy *Hyper) popFree() Ptr {
	sb, _ := hy.free.Pop(regionLinks{hy.heap})
	return Ptr(sb)
}

func (hy *Hyper) pushFree(sb Ptr) { hy.free.Push(regionLinks{hy.heap}, uint64(sb), uint64(sb)) }

func (hy *Hyper) newHyperblock() (Ptr, error) {
	base, err := hy.heap.AllocRegionAligned(hy.hypWords, hy.hypWords)
	if err != nil {
		return 0, err
	}
	d := &hyperDesc{base: base}
	if !hy.descs[uint64(base)>>hy.hypLog].CompareAndSwap(nil, d) {
		// The slot can only be occupied if a previous hyperblock at
		// this address was scavenged and the address reused; replace.
		hy.descs[uint64(base)>>hy.hypLog].Store(d)
	}
	hy.hyperAllocs.Add(1)
	return base, nil
}

func (hy *Hyper) releaseHyperblock(base Ptr) {
	hy.descs[uint64(base)>>hy.hypLog].Store(nil)
	hy.heap.FreeRegion(base, hy.hypWords)
	hy.hyperReleases.Add(1)
}

// Scavenge returns fully-free hyperblocks to the OS. It must run at a
// quiescent point (no concurrent Alloc/Free) — the paper describes the
// hyperblock return path but, like this implementation, gives no
// concurrent algorithm for it. Returns the number of hyperblocks
// released.
func (hy *Hyper) Scavenge() int {
	// Drain the free stack, partitioning superblocks by hyperblock.
	byHyper := map[Ptr][]Ptr{}
	for {
		sb := hy.popFree()
		if sb.IsNil() {
			break
		}
		base := Ptr(uint64(sb) &^ (hy.hypWords - 1))
		byHyper[base] = append(byHyper[base], sb)
	}
	released := 0
	// The current hyperblock is never releasable: its unbumped slots
	// are still promised to future Allocs even when every bumped
	// superblock is back on the stack.
	curBase := Ptr(hy.current.Load() & hyperBaseMask)
	for base, sbs := range byHyper {
		d := hy.desc(base)
		// Releasable iff every superblock ever bumped out of this
		// hyperblock is back on the stack.
		if base != curBase && d.bumped.Load() == uint64(len(sbs)) {
			hy.releaseHyperblock(base)
			released++
			continue
		}
		for _, sb := range sbs {
			hy.pushFree(sb)
		}
	}
	return released
}

// HyperStats reports layer counters.
type HyperStats struct {
	Allocs, Frees, HyperAllocs, HyperReleases uint64
}

// Stats returns layer counters.
func (hy *Hyper) Stats() HyperStats {
	return HyperStats{
		Allocs:        hy.allocs.Load(),
		Frees:         hy.frees.Load(),
		HyperAllocs:   hy.hyperAllocs.Load(),
		HyperReleases: hy.hyperReleases.Load(),
	}
}

// SBWords returns the superblock size served by this layer.
func (hy *Hyper) SBWords() uint64 { return hy.sbWords }
