// Package sizeclass defines the block size classes shared by the
// allocators in this repository.
//
// The paper distributes superblocks among size classes based on block
// size (§3.1), leaves the spacing open, and gives each class its own
// superblock size (Figure 3: sizeclass {Partial, sz, sbsize}). Every
// block carries a one-word (8-byte) prefix, as in the paper, so a
// class's block is its payload plus one word. A superblock is three or
// four pages, 12 or 16 KiB (1536 or 2048 words; 16 KiB is the paper's
// example size), which keeps every class's block count within the
// 10-bit avail/count fields of the anchor word. The table has two parts:
//
//   - Up to 896 B the payloads are listed: 8-byte steps to 64 B, then
//     four steps per doubling, each on a 16 KiB superblock. A request
//     wastes under 30 % of its class there, and 18 or more blocks share
//     a superblock, so the words left over behind the last block are at
//     most a few per cent.
//
//   - From there on a step in payload is a step in blocks per
//     superblock, so the classes are block counts. For each superblock
//     size SB and each count n = 15 … 2 the candidate block is the
//     largest that still fits n times, SB/n words, prefix included. The
//     table keeps a candidate unless a larger block costs no more
//     superblock per block (SBWords/MaxCount), taking 16 KiB on a tie:
//     the frontier of 14 four-page classes (1080, 1160, 1248, 1352,
//     1480, 1624, 1808, 2040, 2328, 2720, 3264, 4088, 5448 and 8184 B
//     of payload) and nine three-page ones between them (936, 1016,
//     1104, 1216, 1528, 1744, 2448, 3064 and 6136 B). Such a class
//     leaves fewer than MaxCount words of its superblock unused, and no
//     three- or four-page superblock does better for a request between
//     two of them: any block that holds it costs at least the class's
//     share of a superblock.
//
// n stops at 2: the small/large boundary is half a 16 KiB superblock,
// where Hoard, the paper's baseline, draws it. A class of one block per
// superblock would be a large block with a descriptor — all of the
// Anchor protocol to hand out a region the OS layer hands out directly,
// rounded to pages where the superblock rounds to 12 or 16 KiB — and
// the core's credit arithmetic (MallocFromNewSB takes block 0 and
// installs the rest as Active) needs a second block.
//
// Domination: for every request size, the share of a superblock the
// block takes (SBWords/MaxCount) is no larger than under the table this
// one replaced — 256-byte steps from 1024 to 2048 B on 16 KiB
// superblocks, and page-rounded regions from the OS layer above that —
// so no workload's footprint grows by the change;
// TestDominatesPreviousTable keeps the old table as its reference.
package sizeclass

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/atomicx"
	"repro/internal/mem"
)

// SuperblockWords is the size of the largest small-class superblock in
// words (16 KiB), the size of every listed class's. No superblock is
// larger, so a count of superblocks times SuperblockWords bounds the
// words they hold.
const SuperblockWords = 4 * mem.PageWords

// MaxPayloadBytes is the largest payload served from superblocks, the
// two-block class of 16 KiB: half a superblock less the prefix. Larger
// requests are large blocks allocated directly from the OS layer.
const MaxPayloadBytes = (SuperblockWords/2 - 1) * mem.WordBytes

// Class describes one size class.
type Class struct {
	Index        int
	PayloadBytes uint64 // caller-visible bytes
	BlockWords   uint64 // payload words + 1 prefix word
	SBWords      uint64 // superblock size in words
	MaxCount     uint64 // blocks per superblock
}

var classes = buildClasses(shapes())

// listedMaxBytes is the largest listed class; above it a class is
// defined by its block count.
const listedMaxBytes = 896

// firstCountClass is the largest block count of a count class: what a
// 1024 B block has on 16 KiB (129 words fit 15 times), where the
// 128-byte steps would have gone on.
const firstCountClass = 15

// shape is a class before it is indexed: its block, prefix included,
// and the superblock the block is carved from, both in words.
type shape struct{ blockWords, sbWords uint64 }

func (s shape) count() uint64 { return s.sbWords / s.blockWords }

// dominates reports whether d makes c redundant: its block is at least
// as large at no more superblock per block (sbWords/count, compared
// cross-multiplied), and larger, cheaper or, on a tie in both, carved
// from the larger superblock.
func (d shape) dominates(c shape) bool {
	dCost, cCost := d.sbWords*c.count(), c.sbWords*d.count()
	return d.blockWords >= c.blockWords && dCost <= cCost &&
		(d.blockWords > c.blockWords || dCost < cCost || d.sbWords > c.sbWords)
}

// shapes lists the table: 8-byte steps to 64 B, 16 to 128, 32 to 256,
// 64 to 512, 128 to 896 on 16 KiB superblocks, then the count classes.
func shapes() []shape {
	var out []shape
	add := func(from, to, step uint64) {
		for s := from; s <= to; s += step {
			out = append(out, shape{s/mem.WordBytes + 1, SuperblockWords})
		}
	}
	add(8, 64, 8)
	add(80, 128, 16)
	add(160, 256, 32)
	add(320, 512, 64)
	add(640, listedMaxBytes, 128)
	return append(out, countShapes()...)
}

// countShapes is the count classes, smallest first: of the blocks
// SB/n words for each superblock size SB of three or four pages and
// n = firstCountClass … 2 whose payload is above listedMaxBytes, those
// no other dominates.
func countShapes() []shape {
	var cands []shape
	for _, sb := range []uint64{3 * mem.PageWords, SuperblockWords} {
		for n := uint64(2); n <= firstCountClass; n++ {
			if bw := sb / n; (bw-1)*mem.WordBytes > listedMaxBytes {
				cands = append(cands, shape{bw, sb})
			}
		}
	}
	var out []shape
	for _, c := range cands {
		if !slices.ContainsFunc(cands, func(d shape) bool { return d.dominates(c) }) {
			out = append(out, c)
		}
	}
	slices.SortFunc(out, func(x, y shape) int { return cmp.Compare(x.blockWords, y.blockWords) })
	return out
}

// lookup maps ceil(payload/8) to class index.
var lookup [MaxPayloadBytes/mem.WordBytes + 1]int8

// buildClasses derives the table from its shapes. It panics on a table
// the rest of the repository cannot represent: a class index beyond
// lookup's int8, a block count beyond the anchor's fields, fewer than
// two blocks a superblock, or a superblock larger than SuperblockWords.
func buildClasses(shapes []shape) []Class {
	if len(shapes) > math.MaxInt8+1 {
		panic(fmt.Sprintf("sizeclass: %d classes do not fit lookup's int8 entries", len(shapes)))
	}
	out := make([]Class, len(shapes))
	for i, s := range shapes {
		pb := (s.blockWords - 1) * mem.WordBytes
		mc := s.count()
		if mc > atomicx.MaxBlocksPerSuperblock {
			panic(fmt.Sprintf("sizeclass: class %d (%d B) has %d blocks, exceeding anchor field width", i, pb, mc))
		}
		if mc < 2 {
			panic(fmt.Sprintf("sizeclass: class %d (%d B) has fewer than 2 blocks per superblock", i, pb))
		}
		if s.sbWords > SuperblockWords {
			panic(fmt.Sprintf("sizeclass: class %d (%d B) has a %d-word superblock, above %d", i, pb, s.sbWords, SuperblockWords))
		}
		out[i] = Class{
			Index:        i,
			PayloadBytes: pb,
			BlockWords:   s.blockWords,
			SBWords:      s.sbWords,
			MaxCount:     mc,
		}
	}
	return out
}

func init() {
	ci := 0
	for w := 1; w <= MaxPayloadBytes/mem.WordBytes; w++ {
		for uint64(w*mem.WordBytes) > classes[ci].PayloadBytes {
			ci++
		}
		lookup[w] = int8(ci)
	}
}

// NumClasses returns the number of size classes.
func NumClasses() int { return len(classes) }

// ByIndex returns the class with the given index.
func ByIndex(i int) Class { return classes[i] }

// For returns the class serving a payload of the given size in bytes,
// and ok=false if the size must be served as a large block.
func For(payloadBytes uint64) (Class, bool) {
	i, ok := IndexFor(payloadBytes)
	if !ok {
		return Class{}, false
	}
	return classes[i], true
}

// IndexFor returns the index of the class serving the payload size,
// avoiding the struct copy of For on hot paths.
func IndexFor(payloadBytes uint64) (int, bool) {
	if payloadBytes > MaxPayloadBytes {
		return 0, false
	}
	if payloadBytes == 0 {
		return 0, true
	}
	w := (payloadBytes + mem.WordBytes - 1) / mem.WordBytes
	return int(lookup[w]), true
}

// IsLarge reports whether a payload of the given byte size bypasses the
// size classes.
func IsLarge(payloadBytes uint64) bool { return payloadBytes > MaxPayloadBytes }

// All returns a copy of the class table (for tools and tests).
func All() []Class {
	out := make([]Class, len(classes))
	copy(out, classes)
	return out
}
