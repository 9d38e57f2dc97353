package mem

import "fmt"

// Large-object layer: every allocator in this repository serves
// requests beyond its small-block machinery the same way — round the
// payload up to words, add one prefix word, take a canonical region
// from the OS layer, and record the region's rounded word count in the
// prefix so the free path can hand FreeRegion the canonical size. The
// helpers here are that shared path; before them each backend carried
// its own near-identical copy.

// ErrRegionOverflow reports a large request whose region (payload plus
// prefix word) exceeds the heap's maximum region size. It wraps
// ErrOutOfMemory so existing errors.Is checks keep matching.
var ErrRegionOverflow = fmt.Errorf("mem: allocation size exceeds maximum region: %w", ErrOutOfMemory)

// PayloadWords is the number of words a request of size bytes occupies:
// size rounded up to words, and at least one, since even a zero-size
// request gets a usable pointer. It cannot wrap, so a size near 2^64
// asks for about 2^61 words, which no heap serves, rather than for one.
func PayloadWords(size uint64) uint64 {
	return max(size/WordBytes+(size%WordBytes+WordBytes-1)/WordBytes, 1)
}

// SizePrefix encodes a canonical region size as a large-block prefix
// word: regionWords<<1 with bit 0 set. Bit 0 distinguishes large
// blocks from small-block prefixes (descriptor or superblock indexes,
// which use idx<<1 with bit 0 clear). The prefix-word allocators (core,
// hoard, buddy's overflow path) pass this as LargeAlloc's encoder; the
// boundary-tag backends embed the size in a chunkheap header instead.
func SizePrefix(regionWords uint64) uint64 { return regionWords<<1 | 1 }

// SizePrefixWords decodes a SizePrefix prefix back to the canonical
// region word count.
func SizePrefixWords(prefix uint64) uint64 { return prefix >> 1 }

// LargeAlloc allocates a large block with at least size payload bytes
// directly from the OS layer and returns a pointer to the payload. The
// region holds one prefix word followed by the payload; encode maps
// the region's canonical (rounded) word count to the prefix word
// stored there; the free path decodes it back and hands the canonical
// size to LargeFree, which asserts the round trip under the memdebug
// build tag.
func (h *Heap) LargeAlloc(size uint64, encode func(regionWords uint64) uint64) (Ptr, error) {
	totalWords := PayloadWords(size) + 1
	if totalWords > h.MaxRegionWords() {
		return 0, ErrRegionOverflow
	}
	base, regionWords, err := h.AllocRegion(totalWords)
	if err != nil {
		return 0, err
	}
	h.Store(base, encode(regionWords))
	return base.Add(1), nil
}

// LargeFree releases a large block returned by LargeAlloc. regionWords
// is the canonical region word count decoded from the block's prefix
// (every free path loads the prefix anyway to discriminate large from
// small blocks, so the decoded value is passed rather than re-loaded).
// Under the memdebug build tag the canonical-size invariant — the
// stored prefix decodes to the exact region size FreeRegion demands —
// is asserted here for every backend at once.
func (h *Heap) LargeFree(p Ptr, regionWords uint64) {
	if memDebug && regionWords != RegionWords(regionWords) {
		panic(fmt.Sprintf("mem: LargeFree(%v): prefix decoded to %d words, not a canonical region size (RegionWords gives %d)",
			p, regionWords, RegionWords(regionWords)))
	}
	h.FreeRegion(p-1, regionWords)
}
