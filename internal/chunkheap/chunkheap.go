// Package chunkheap implements a dlmalloc-style boundary-tag chunk
// allocator over a region of the simulated address space. It is the
// sequential engine behind the two lock-based baselines, mirroring
// reality: ptmalloc2 is "based on Doug Lea's dlmalloc sequential
// allocator" (paper §2.2) with one instance per arena, and the serial
// libc stand-in wraps a single instance (with a best-fit tree policy,
// in the spirit of AIX's Cartesian-tree malloc) in one global lock.
//
// Chunk layout (words), as in dlmalloc:
//
//	[ header | payload ... | (footer when free) ] [ next chunk ... ]
//
// The header word encodes the chunk size in words, an in-use bit, a
// prev-in-use bit, and a 16-bit owner tag (the arena index, so that
// free can route a block back to its origin arena without auxiliary
// tables). A free chunk stores boundary footers (its size in its last
// word) so that the successor can coalesce backwards, and its first
// two payload words carry free-list links. Freeing coalesces with both
// neighbors; allocation searches size bins and splits remainders, and
// falls back to bump allocation from the current wilderness region
// obtained from the OS layer.
//
// Instances are NOT safe for concurrent use; callers serialize with
// their own lock, which is exactly the lock structure the paper
// ascribes to libc malloc and ptmalloc.
package chunkheap

import (
	"fmt"

	"repro/internal/mem"
)

// Header encoding: size:40 << headerSizeShift | tag:16 << headerTagShift
// | flags:3.
const (
	flagInUse     = 1 << 0 // this chunk is allocated
	flagPrevInUse = 1 << 1 // the chunk before this one is allocated
	flagLarge     = 1 << 2 // block was mmapped directly (not a chunk)

	headerFlagBits  = 3
	headerSizeShift = headerFlagBits
	headerSizeBits  = 40
	headerTagShift  = headerSizeShift + headerSizeBits
	headerTagBits   = 16
	headerSizeMask  = (1 << headerSizeBits) - 1
	headerTagMask   = (1 << headerTagBits) - 1
)

// minChunkWords is the smallest chunk: header + two link words + footer.
const minChunkWords = 4

// smallBins is the number of exact-fit bins (chunk sizes
// minChunkWords..minChunkWords+smallBins-1 words, covering payloads up
// to ~0.5 KiB); larger free chunks go to the policy structure.
const smallBins = 64

// regionWords is the wilderness extension unit requested from the OS
// layer (dlmalloc's sbrk/mmap top extension).
const regionWords = 16384 // 128 KiB

// Policy selects how free chunks beyond the small bins are indexed.
type Policy int

const (
	// FastBins approximates dlmalloc/ptmalloc2: power-of-two range
	// bins with first-fit within a bin.
	FastBins Policy = iota
	// BestFitTree approximates the AIX libc (Cartesian tree) malloc:
	// a size-keyed binary search tree with exact best-fit and
	// address-ordered tie-breaking. Slower per operation, which is the
	// paper's observed libc behaviour.
	BestFitTree
)

// Heap is one sequential chunk heap.
type Heap struct {
	mem    *mem.Heap
	tag    uint64
	policy Policy

	// small exact bins: doubly-linked lists of free chunks, threaded
	// through payload words 1 (fd) and 2 (bk). Index i holds chunks of
	// exactly minChunkWords+i words.
	small [smallBins]mem.Ptr

	// FastBins policy: range bins by log2 for larger chunks.
	large [numLargeBins]mem.Ptr

	// BestFitTree policy: root of the size-keyed BST. Tree node links
	// live in free-chunk payloads: word1=left, word2=right, word3=next
	// same-size chunk (list), so tree chunks need >= 5 words.
	root mem.Ptr

	// wilderness: current bump region.
	top    mem.Ptr
	topEnd mem.Ptr

	// arena is the region arena wilderness extensions draw from (the
	// owner tag modulo the heap's arena count, so chunk heap i maps to
	// region arena i).
	arena mem.Arena

	// Stats.
	allocs, frees, coalesces, splits, extends uint64
}

// New creates a chunk heap with the given owner tag (0..65535), drawing
// wilderness regions from m. The tag doubles as the region-arena hint:
// wilderness extensions come from m.Arena(tag), so distinct chunk heaps
// spread across the OS layer's arenas.
func New(m *mem.Heap, tag uint64, policy Policy) *Heap {
	if tag > headerTagMask {
		panic("chunkheap: tag out of range")
	}
	return &Heap{mem: m, tag: tag, policy: policy, arena: m.Arena(int(tag))}
}

func packHeader(sizeWords, tag, flags uint64) uint64 {
	return sizeWords<<headerSizeShift | tag<<headerTagShift | flags
}

func headerSize(h uint64) uint64 { return h >> headerSizeShift & headerSizeMask }

func headerFlags(h uint64) uint64 { return h & (flagInUse | flagPrevInUse | flagLarge) }

// Tag extracts the owner tag from an allocated block's header. p is
// the payload pointer returned by Alloc.
func Tag(m *mem.Heap, p mem.Ptr) uint64 {
	return m.Load(p-1) >> headerTagShift & headerTagMask
}

// MutableHeaderBits are the header bits of a LIVE chunk that the heap
// legitimately rewrites while the block is allocated: freeing the
// neighbor below clears this chunk's prev-in-use flag. External
// header-stability checkers (the shadow oracle) must mask these bits
// out when comparing a live block's header across its lifetime.
const MutableHeaderBits uint64 = flagPrevInUse

// IsLargeHeader reports whether a header word marks a direct OS block.
func IsLargeHeader(h uint64) bool { return h&flagLarge != 0 }

// MakeLargeHeader builds the header word for a block allocated
// directly from the OS layer (dlmalloc's mmapped chunks), recording
// the region's rounded word count so free can return the region with
// its canonical size.
func MakeLargeHeader(regionWords uint64) uint64 {
	return packHeader(regionWords, 0, flagLarge|flagInUse)
}

// LargeWords extracts the total word count from a large-block header.
func LargeWords(h uint64) uint64 { return headerSize(h) }

// UsableWords returns the payload words available in the allocated
// block at p (chunk size minus the header word; for direct OS blocks,
// region size minus the header word) — the malloc_usable_size analogue
// for chunk-heap-based allocators.
func UsableWords(m *mem.Heap, p mem.Ptr) uint64 {
	return headerSize(m.Load(p-1)) - 1
}

// chunk accessors. A chunk pointer addresses its header word.
//
// All metadata WRITES go through Heap.Store, for two reasons. First,
// free() reads the owner tag of an allocated block before acquiring any
// lock (ptmalloc's arena routing), so header writes race with unlocked
// tag reads. Second, a lock-free structure built over allocator blocks
// (the §4.1 benchmark queue) holds intentionally stale pointers into
// freed blocks and reads their words; splits, coalescing, and binning
// rewrite those same words. A C allocator leaves these races benign-
// by-convention, and so does Store outside the race build: one aligned
// word written plainly, so a racing read sees the old word or the new
// one. The race build keeps Store atomic, which is what tells the
// detector the race is intended. The lock release publishes the writes
// to the next holder; READS happen under the owning lock and stay
// plain.

func (c *Heap) header(ch mem.Ptr) uint64        { return c.mem.Get(ch) }
func (c *Heap) setHeader(ch mem.Ptr, h uint64)  { c.mem.Store(ch, h) }
func (c *Heap) setHeaderA(ch mem.Ptr, h uint64) { c.mem.Store(ch, h) }

func (c *Heap) size(ch mem.Ptr) uint64 { return headerSize(c.header(ch)) }

func (c *Heap) next(ch mem.Ptr) mem.Ptr { return ch.Add(c.size(ch)) }

func (c *Heap) setFooter(ch mem.Ptr, size uint64) {
	c.mem.Store(ch.Add(size-1), size)
}

func (c *Heap) prevSize(ch mem.Ptr) uint64 { return c.mem.Get(ch - 1) }

// free-list link accessors (valid only on free chunks). Link WRITES
// go through Heap.Store: they recycle the first payload words of a
// freed block, which a lock-free structure built over allocator blocks
// (e.g. the §4.1 benchmark queue) may still read through an
// intentionally stale pointer — exactly the safe-memory-reclamation
// hazard the paper's [17,18,19] address. A C allocator leaves this race
// benign-by-convention; Store does too, and is atomic in the race build
// so the detector accepts it (see the accessor note above). Reads
// happen under the owning lock and may stay plain.
func (c *Heap) fd(ch mem.Ptr) mem.Ptr { return mem.Ptr(c.mem.Get(ch.Add(1))) }
func (c *Heap) bk(ch mem.Ptr) mem.Ptr { return mem.Ptr(c.mem.Get(ch.Add(2))) }
func (c *Heap) setFd(ch, v mem.Ptr)   { c.mem.Store(ch.Add(1), uint64(v)) }
func (c *Heap) setBk(ch, v mem.Ptr)   { c.mem.Store(ch.Add(2), uint64(v)) }

// Alloc returns a pointer to payloadWords words of payload. The word
// before the returned pointer is the chunk header (carrying the owner
// tag); callers must not touch it.
func (c *Heap) Alloc(payloadWords uint64) (mem.Ptr, error) {
	c.allocs++
	need := payloadWords + 1 // header
	if need < minChunkWords {
		need = minChunkWords
	}
	if ch := c.takeFit(need); !ch.IsNil() {
		return c.finishAlloc(ch, need), nil
	}
	// Wilderness bump; extend from the OS if exhausted.
	if uint64(c.topEnd-c.top) < need+1 { // +1: room for the border sentinel
		if err := c.extend(need); err != nil {
			return 0, err
		}
	}
	ch := c.top
	// The border sentinel at the bump point tracks whether the chunk
	// just below the top is in use (Free clears its prevInUse bit).
	prev := headerFlags(c.header(ch)) & flagPrevInUse
	c.top = c.top.Add(need)
	c.setHeader(ch, packHeader(need, c.tag, prev|flagInUse))
	c.setBorder()
	return ch.Add(1), nil
}

// setBorder writes the sentinel header just past the bump point so
// coalescing never walks beyond allocated space. The border is an
// in-use chunk of size 0.
func (c *Heap) setBorder() {
	c.setHeader(c.top, packHeader(0, c.tag, flagInUse|flagPrevInUse))
}

func (c *Heap) extend(need uint64) error {
	want := need + 2
	if want < regionWords {
		want = regionWords
	}
	base, words, err := c.arena.AllocRegion(want)
	if err != nil {
		return err
	}
	c.extends++
	// Abandon the old top remainder as a free chunk if usable,
	// preserving the old border's record of the predecessor's state.
	if rem := uint64(c.topEnd - c.top); rem >= minChunkWords+1 {
		ch := c.top
		prev := headerFlags(c.header(ch)) & flagPrevInUse
		c.setHeader(ch, packHeader(rem-1, c.tag, prev))
		c.setFooter(ch, rem-1)
		c.binChunk(ch, rem-1)
		// Border after the remainder, marking prev free.
		c.setHeader(ch.Add(rem-1), packHeader(0, c.tag, flagInUse))
	} else if rem > 0 {
		// Too small to use: mark as a permanently allocated stub.
		prev := headerFlags(c.header(c.top)) & flagPrevInUse
		c.setHeader(c.top, packHeader(rem, c.tag, flagInUse|prev))
	}
	c.top = base
	c.topEnd = base.Add(words - 1) // reserve last word for the border
	c.setBorder()
	return nil
}

// finishAlloc splits ch (already removed from bins, size >= need) and
// returns its payload pointer.
func (c *Heap) finishAlloc(ch mem.Ptr, need uint64) mem.Ptr {
	size := c.size(ch)
	prevBit := headerFlags(c.header(ch)) & flagPrevInUse
	if size >= need+minChunkWords {
		// Split: remainder becomes a free chunk.
		c.splits++
		rem := size - need
		remCh := ch.Add(need)
		c.setHeader(remCh, packHeader(rem, c.tag, flagPrevInUse))
		c.setFooter(remCh, rem)
		c.binChunk(remCh, rem)
		size = need
	} else {
		// Exact-ish fit: successor's prevInUse must be set. The
		// successor may be an allocated block whose header a
		// concurrent unlocked free() is reading (see the accessor note).
		nxt := ch.Add(size)
		c.setHeaderA(nxt, c.header(nxt)|flagPrevInUse)
	}
	c.setHeaderA(ch, packHeader(size, c.tag, prevBit|flagInUse))
	return ch.Add(1)
}

// Free returns a payload pointer from Alloc, coalescing with free
// neighbors.
func (c *Heap) Free(p mem.Ptr) {
	c.frees++
	ch := p - 1
	h := c.header(ch)
	size := headerSize(h)
	// Coalesce backward.
	if h&flagPrevInUse == 0 {
		c.coalesces++
		psz := c.prevSize(ch)
		prev := ch - mem.Ptr(psz)
		c.unbinChunk(prev, psz)
		ch = prev
		size += psz
	}
	// Coalesce forward.
	nxt := ch.Add(size)
	nh := c.header(nxt)
	if nh&flagInUse == 0 {
		c.coalesces++
		nsz := headerSize(nh)
		c.unbinChunk(nxt, nsz)
		size += nsz
		nxt = ch.Add(size)
		nh = c.header(nxt)
	}
	// Mark free: header, footer, successor's prevInUse cleared (the
	// successor may be allocated and concurrently tag-read; see the
	// accessor note).
	c.setHeader(ch, packHeader(size, c.tag, headerFlags(c.header(ch))&flagPrevInUse))
	c.setFooter(ch, size)
	c.setHeaderA(nxt, nh&^flagPrevInUse)
	c.binChunk(ch, size)
}

// Stats reports operation counters.
type Stats struct {
	Allocs, Frees, Coalesces, Splits, Extends uint64
}

// Stats returns the heap's counters.
func (c *Heap) Stats() Stats {
	return Stats{c.allocs, c.frees, c.coalesces, c.splits, c.extends}
}

func (c *Heap) String() string {
	return fmt.Sprintf("chunkheap(tag=%d policy=%d allocs=%d frees=%d)", c.tag, c.policy, c.allocs, c.frees)
}
