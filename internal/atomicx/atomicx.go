// Package atomicx provides the packed atomic word encodings used
// throughout the allocator.
//
// The allocator of Michael (PLDI 2004) relies on single-word CAS over
// carefully packed multi-field words:
//
//   - the superblock descriptor Anchor word
//     (avail:10, count:10, state:2, tag:42),
//   - the processor-heap Active word (ptr:58, credits:6),
//   - tagged index words for ABA-safe freelist heads (idx:40, tag:24).
//
// This package implements those encodings with explicit bit layouts that
// match the paper's Figure 3, plus a documented stand-in for memory
// fences, the one single-writer plain store (PlainStore) and the one
// plain load of a growing word (PlainLoad).
//
// Memory fences: the paper targets PowerPC and inserts sync/isync/eieio
// instructions at specific points (Figure 4 line 12, Figure 6 lines 14
// and 17, Figure 7 lines 7 and 3), each between plain stores or loads
// and the CAS that publishes them. Go's sync/atomic operations are
// sequentially consistent, so that CAS itself orders every earlier
// store before it and every later load after it: the CAS is the fence.
// The fence call sites are kept (as Fence calls that compile to
// nothing) so the correspondence with the paper's code remains visible.
package atomicx

import "sync/atomic"

// Superblock states, exactly the paper's codes (Figure 3).
const (
	StateActive  = 0 // superblock is (or is being installed as) a heap's active superblock
	StateFull    = 1 // all blocks allocated or reserved
	StatePartial = 2 // not active, has unreserved available blocks
	StateEmpty   = 3 // all blocks free and not active; superblock may be returned to the OS
)

// StateName returns the paper's name for a superblock state code.
func StateName(s uint64) string {
	switch s {
	case StateActive:
		return "ACTIVE"
	case StateFull:
		return "FULL"
	case StatePartial:
		return "PARTIAL"
	case StateEmpty:
		return "EMPTY"
	}
	return "INVALID"
}

// Anchor field widths (Figure 3: unsigned avail:10,count:10,state:2,tag:42).
const (
	AnchorAvailBits = 10
	AnchorCountBits = 10
	AnchorStateBits = 2
	AnchorTagBits   = 42

	AnchorAvailShift = 0
	AnchorCountShift = AnchorAvailBits
	AnchorStateShift = AnchorCountShift + AnchorCountBits
	AnchorTagShift   = AnchorStateShift + AnchorStateBits

	AnchorAvailMask = (1 << AnchorAvailBits) - 1
	AnchorCountMask = (1 << AnchorCountBits) - 1
	AnchorStateMask = (1 << AnchorStateBits) - 1
	AnchorTagMask   = (1 << AnchorTagBits) - 1

	// MaxBlocksPerSuperblock is the largest number of blocks a
	// superblock may hold given the 10-bit avail/count fields. avail
	// indexes blocks 0..maxcount-1 and count never exceeds maxcount-1
	// (a superblock whose last block is freed goes EMPTY without
	// incrementing count), so maxcount may be as large as 1<<10.
	MaxBlocksPerSuperblock = 1 << AnchorAvailBits
)

// Anchor is the unpacked view of a descriptor's anchor word.
//
// Avail holds the index of the first available block in the superblock's
// free list, Count the number of unreserved available blocks, State one
// of the four state codes, and Tag the ABA-prevention tag incremented on
// every pop (Figure 4 line 12, Figure 4 line 14 of MallocFromPartial).
type Anchor struct {
	Avail uint64
	Count uint64
	State uint64
	Tag   uint64
}

// Pack encodes the anchor into a single 64-bit word. Fields are masked
// to their widths: Avail deliberately wraps when a pop stores the
// "next" link of the last block in a superblock (footnote 1 of the
// paper: that value is never used before a block is freed back), and
// Tag wraps after 2^42 pops.
func (a Anchor) Pack() uint64 {
	return (a.Avail&AnchorAvailMask)<<AnchorAvailShift |
		(a.Count&AnchorCountMask)<<AnchorCountShift |
		(a.State&AnchorStateMask)<<AnchorStateShift |
		(a.Tag&AnchorTagMask)<<AnchorTagShift
}

// UnpackAnchor decodes an anchor word.
func UnpackAnchor(w uint64) Anchor {
	return Anchor{
		Avail: w >> AnchorAvailShift & AnchorAvailMask,
		Count: w >> AnchorCountShift & AnchorCountMask,
		State: w >> AnchorStateShift & AnchorStateMask,
		Tag:   w >> AnchorTagShift & AnchorTagMask,
	}
}

// Active field widths (Figure 3: unsigned ptr:58,credits:6).
//
// The paper packs a credits subfield into the low bits of the (aligned)
// descriptor address. Descriptors here are identified by a dense index
// rather than an address, so the 58-bit field holds the descriptor
// index. Index 0 is reserved: an all-zero Active word is the paper's
// NULL Active.
const (
	ActiveCreditsBits = 6
	ActivePtrBits     = 58

	ActiveCreditsMask = (1 << ActiveCreditsBits) - 1

	// MaxCredits is the paper's MAXCREDITS: the most blocks that can be
	// reserved through the Active word at once (credits holds
	// reservations-1, so 6 bits of credits cover 64 reservations).
	MaxCredits = 1 << ActiveCreditsBits
)

// Active is the unpacked view of a processor heap's Active word. A zero
// Active (Desc == 0) is NULL. If Desc != 0, the active superblock has
// Credits+1 blocks available for reservation through this word.
type Active struct {
	Desc    uint64 // descriptor index, 0 = NULL
	Credits uint64 // available reservations minus one
}

// Pack encodes the active word. Packing a NULL Active yields 0.
func (a Active) Pack() uint64 {
	return a.Desc<<ActiveCreditsBits | a.Credits&ActiveCreditsMask
}

// UnpackActive decodes an active word.
func UnpackActive(w uint64) Active {
	return Active{Desc: w >> ActiveCreditsBits, Credits: w & ActiveCreditsMask}
}

// IsNull reports whether the active word is the paper's NULL.
func (a Active) IsNull() bool { return a.Desc == 0 }

// Tagged index words: idx:40, tag:24. Used for ABA-safe Treiber-stack
// heads where the elements are identified by 40-bit indices (heap word
// addresses or descriptor indices). The paper prevents ABA on such
// structures with hazard pointers or ideal LL/SC [17,18,19]; a
// wide-enough version tag on the head word is the classic IBM
// alternative [8] and is what we use for index-addressed freelists,
// where a 24-bit tag combined with the monotonically growing index
// space makes wraparound-coincidence practically impossible.
const (
	TaggedIdxBits = 40
	TaggedTagBits = 24

	TaggedIdxMask = (1 << TaggedIdxBits) - 1
	TaggedTagMask = (1 << TaggedTagBits) - 1
)

// Tagged is an (index, tag) pair packed into one word.
type Tagged struct {
	Idx uint64
	Tag uint64
}

// Pack encodes the tagged index.
func (t Tagged) Pack() uint64 {
	return t.Idx&TaggedIdxMask | (t.Tag&TaggedTagMask)<<TaggedIdxBits
}

// UnpackTagged decodes a tagged index word.
func UnpackTagged(w uint64) Tagged {
	return Tagged{Idx: w & TaggedIdxMask, Tag: w >> TaggedIdxBits & TaggedTagMask}
}

// Fence documents a point where the paper's PowerPC code issues a
// memory fence (sync/eieio) to order plain stores before a subsequent
// CAS. The stores here are plain too (mem.Heap.Store), and the ordering
// comes from that CAS: a sequentially consistent atomic, after which
// another thread that observes its result also observes every store
// program-ordered before it. No fence instruction is needed; the
// function exists to keep the paper's fence sites visible in the code.
func Fence() {}

// InstructionFence documents a point where the paper issues an
// instruction fence (isync) to order a plain load before the success of
// a subsequent CAS (free(), Figure 6 line 14). As with Fence, the load
// and the CAS are Go atomics, which already keep that order.
func InstructionFence() {}

// PlainStore writes the word at p with a plain store: a MOV on amd64,
// no barrier of its own. It is for a word that one thread writes and
// others only read, where the reader needs a value the writer stored,
// not an ordering with other words: a heap link word that the writer's
// next CAS publishes (mem.Heap.Store), or a magazine's count that the
// census sums. Go's memory model makes a racy word-sized read return
// some value that was written, never a torn one. Under -race it is
// atomic.StoreUint64, so the detector, which cannot see either
// argument, does not report the reader (see raceBuild). It must inline
// (ci/inline_guard.sh).
func PlainStore(p *uint64, v uint64) {
	if raceBuild {
		atomic.StoreUint64(p, v)
		return
	}
	*p = v
}

// PlainLoad reads the word at p with a plain load, which the compiler may
// fold into a compare. It is for a word that only grows, read by threads
// that need no value newer than what synchronized them with its writer:
// mem.Heap's bump pointer, which every heap-word access compares against.
// Under -race it is atomic.LoadUint64 (see raceBuild). It must inline
// (ci/inline_guard.sh).
func PlainLoad(p *uint64) uint64 {
	if raceBuild {
		return atomic.LoadUint64(p)
	}
	return *p
}
