// Package shadow implements a memcheck-style differential oracle for
// the allocators in this repository: a reference model of the heap,
// keyed by mem.Ptr, that every Malloc and Free is mirrored into. The
// model knows which blocks are live, who allocated them, who freed
// them, and what their prefix words looked like, so it can turn silent
// heap corruption into an immediate, attributed failure:
//
//   - double free, and free of a pointer the allocator never returned
//   - free of an interior pointer, or of a block live in a *different*
//     allocator (cross-allocator free, via a process-wide registry)
//   - two live blocks overlapping (the allocator handed out the same
//     words twice)
//   - a block smaller than the requested size (size-class mismatch)
//   - the block prefix changing between allocation and free (header or
//     free-list-link clobbering)
//   - write-after-free: freed small blocks are filled with a canary
//     pattern and re-checked word-by-word when the allocator hands the
//     address out again.
//
// Poisoning the full payload is safe because every allocator here keeps
// its free-list links in the block *prefix* (the word before the
// payload): the paper's free path stores the avail index at ptr-1, the
// magazine flush writes its chains at group[j]-1, and hoard links
// through the same prefix slot. The payload words of a freed block are
// therefore dead until reallocation — any change is an application (or
// allocator) bug. The chunkheap-based baselines do write into freed
// payloads (fd/bk links and boundary-tag footers live inside the
// chunk), so for them the oracle poisons but does not verify.
//
// Poison becomes stale when a region returns to the OS layer and is
// recycled with different internal geometry; the oracle hooks
// mem.Heap's region-recycle notification (Heap.SetRegionHook) to drop
// its expectations for those words the instant they become reusable.
//
// The oracle is a debugging tool, not a production path: it serializes
// all mirrored operations on one mutex and touches every freed payload
// word. It is part of every build and attached in exactly one way:
// alloc.New (or NewLockFree) with Options.Shadow wraps the
// allocator's handles so that each malloc is mirrored after the
// operation and each free before it. An allocator built without the
// option has no wrapper, so its paths carry no trace of the oracle.
package shadow

import (
	"fmt"
	"strconv"

	"repro/internal/mem"
)

// PoisonWord is the canary pattern written over every payload word of a
// freed (small) block, and expected back verbatim when the block is
// reallocated.
const PoisonWord = 0xdeadbeefcafef00d

// maxPoisonWords bounds which blocks are poisoned: blocks with more
// usable words are tracked but left unpoisoned (large blocks return
// straight to the region layer, where the recycle hook would invalidate
// the canary immediately anyway).
const maxPoisonWords = 4096

// Config parameterizes an Oracle.
type Config struct {
	// Name identifies the allocator under test in violation reports
	// (e.g. "lockfree").
	Name string

	// Heap is the address space the allocator runs on; required.
	Heap *mem.Heap

	// VerifyOnReuse enables the write-after-free check: freed payloads
	// are expected to still hold PoisonWord when the address is handed
	// out again. Only sound for allocators whose free paths never write
	// into freed payloads (lockfree, hoard); the chunkheap-based
	// baselines must leave it off.
	VerifyOnReuse bool

	// PrefixIgnoreMask masks bits OUT of the prefix-stability check:
	// header bits the allocator legitimately rewrites while the block is
	// live. The boundary-tag baselines clear a live chunk's prev-in-use
	// flag when its lower neighbor is freed
	// (chunkheap.MutableHeaderBits); the lockfree core and hoard never
	// touch a live block's prefix, so they leave this zero.
	PrefixIgnoreMask uint64

	// CrossCheck registers the oracle in a process-wide registry so a
	// free of a pointer unknown to this oracle can be attributed to the
	// allocator where it is actually live. Registered oracles must be
	// released with Close.
	CrossCheck bool

	// OnViolation, when non-nil, receives each violation instead of the
	// default behaviour (panic with the violation's report, which names
	// the pointer and the allocating and freeing threads). Harnesses
	// that want to finish the run and inspect Err() set a collecting
	// func here.
	OnViolation func(Violation)
}

// Kind classifies a violation.
type Kind uint8

const (
	// KindDoubleFree: the pointer was already freed and not since
	// reallocated.
	KindDoubleFree Kind = iota
	// KindUnknownFree: the pointer was never returned by this
	// allocator (and, if cross-checking, is not live elsewhere).
	KindUnknownFree
	// KindInteriorFree: the pointer lands inside a live block instead
	// of at its start.
	KindInteriorFree
	// KindCrossAllocatorFree: the pointer is live in a different
	// registered allocator.
	KindCrossAllocatorFree
	// KindOverlap: a newly returned block overlaps a block that is
	// still live.
	KindOverlap
	// KindUndersized: the block's usable size is smaller than the
	// requested size.
	KindUndersized
	// KindPrefixMismatch: the block's prefix word changed between
	// allocation and free (header or free-list-link clobbering).
	KindPrefixMismatch
	// KindWriteAfterFree: a freed, poisoned payload word no longer
	// holds the canary when the block is reallocated.
	KindWriteAfterFree
	// KindRecycledLive: a region returned to the OS layer while the
	// model still holds live blocks inside it.
	KindRecycledLive
)

func (k Kind) String() string {
	switch k {
	case KindDoubleFree:
		return "double-free"
	case KindUnknownFree:
		return "free-of-unknown-pointer"
	case KindInteriorFree:
		return "free-of-interior-pointer"
	case KindCrossAllocatorFree:
		return "cross-allocator-free"
	case KindOverlap:
		return "overlapping-live-blocks"
	case KindUndersized:
		return "undersized-block"
	case KindPrefixMismatch:
		return "prefix-mismatch"
	case KindWriteAfterFree:
		return "write-after-free"
	case KindRecycledLive:
		return "region-recycled-under-live-block"
	default:
		return fmt.Sprintf("shadow.Kind(%d)", uint8(k))
	}
}

// Violation is one detected heap-safety violation. Thread ids are
// whatever the mirroring caller passes to NoteMalloc/NoteFree (the
// alloc wrapper numbers its handles in NewThread order from 0); -1
// means unknown/not applicable.
type Violation struct {
	Kind      Kind
	Allocator string
	// Ptr is the payload address the violation concerns.
	Ptr mem.Ptr
	// Thread performed the violating operation.
	Thread int64
	// AllocThread allocated the block involved (-1 if unknown).
	AllocThread int64
	// FreeThread freed the block involved (-1 if it was never freed or
	// the freeing thread is unknown).
	FreeThread int64
	// Detail is a human-readable elaboration.
	Detail string
}

// Error renders the violation with full attribution; Violation
// implements error so harnesses can return it directly.
func (v Violation) Error() string {
	return fmt.Sprintf("shadow[%s]: %s at %v (op thread %s, alloc thread %s, free thread %s): %s",
		v.Allocator, v.Kind, v.Ptr,
		threadID(v.Thread), threadID(v.AllocThread), threadID(v.FreeThread), v.Detail)
}

func threadID(t int64) string {
	if t < 0 {
		return "?"
	}
	return strconv.FormatInt(t, 10)
}
