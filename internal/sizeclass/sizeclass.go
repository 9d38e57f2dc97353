// Package sizeclass defines the block size classes shared by the
// allocators in this repository.
//
// The paper distributes superblocks among size classes based on block
// size (§3.1) and leaves the spacing open. Every block carries a
// one-word (8-byte) prefix, as in the paper, so a class's block is its
// payload plus one word, and every superblock is 16 KiB (2048 words),
// the paper's example size, which keeps every class's block count
// within the 10-bit avail/count fields of the anchor word. The table
// has two parts:
//
//   - Up to 896 B the payloads are listed: 8-byte steps to 64 B, then
//     four steps per doubling. A request wastes under 30 % of its class
//     there, and 18 or more blocks share a superblock, so the words left
//     over behind the last block are at most a few per cent.
//
//   - From there on a step in payload is a step in blocks per
//     superblock, so the classes are the block counts: one class for
//     each n = 15 … 2, whose block is the largest that still fits n
//     times, SuperblockWords/n words, prefix included (1080, 1160, 1248,
//     1352, 1480, 1624, 1808, 2040, 2328, 2720, 3264, 4088, 5448 and
//     8184 B of payload). Such a class leaves fewer than n words of its
//     superblock unused, and no table can do better for a request
//     between two of them: any block that holds it fits only as many
//     times as the class's does.
//
// n stops at 2: the small/large boundary is half a superblock, where
// Hoard, the paper's baseline, draws it. A class of one block per
// superblock would be a large block with a descriptor — all of the
// Anchor protocol to hand out a region the OS layer hands out directly,
// rounded to pages where the superblock rounds to 16 KiB — and the
// core's credit arithmetic (MallocFromNewSB takes block 0 and installs
// the rest as Active) needs a second block.
//
// Domination: for every request size, the share of a superblock the
// block takes (SBWords/MaxCount) is no larger than under the table this
// one replaced — 256-byte steps from 1024 to 2048 B, and page-rounded
// regions from the OS layer above that — so no workload's footprint
// grows by the change; TestDominatesPreviousTable keeps the old table
// as its reference.
package sizeclass

import (
	"fmt"
	"math"

	"repro/internal/atomicx"
	"repro/internal/mem"
)

// SuperblockWords is the size of every small-class superblock in words
// (16 KiB).
const SuperblockWords = 2048

// MaxPayloadBytes is the largest payload served from superblocks, the
// two-block class: half a superblock less the prefix. Larger requests
// are large blocks allocated directly from the OS layer.
const MaxPayloadBytes = (SuperblockWords/2 - 1) * mem.WordBytes

// Class describes one size class.
type Class struct {
	Index        int
	PayloadBytes uint64 // caller-visible bytes
	BlockWords   uint64 // payload words + 1 prefix word
	SBWords      uint64 // superblock size in words
	MaxCount     uint64 // blocks per superblock
}

var classes = buildClasses(payloadSizes())

// firstCountClass is the block count of the smallest class defined by
// its count: what a 1024 B block has (129 words fit 15 times), where
// the 128-byte steps would have gone on.
const firstCountClass = 15

// payloadSizes lists the table's payloads in bytes: 8-byte steps to 64,
// 16 to 128, 32 to 256, 64 to 512, 128 to 896, then one class per block
// count from firstCountClass down to 2.
func payloadSizes() []uint64 {
	var out []uint64
	add := func(from, to, step uint64) {
		for s := from; s <= to; s += step {
			out = append(out, s)
		}
	}
	add(8, 64, 8)
	add(80, 128, 16)
	add(160, 256, 32)
	add(320, 512, 64)
	add(640, 896, 128)
	for n := uint64(firstCountClass); n >= 2; n-- {
		out = append(out, (SuperblockWords/n-1)*mem.WordBytes)
	}
	return out
}

// lookup maps ceil(payload/8) to class index.
var lookup [MaxPayloadBytes/mem.WordBytes + 1]int8

// buildClasses derives the table from its payload sizes. It panics on
// a table the rest of the repository cannot represent: a class index
// beyond lookup's int8, a block count beyond the anchor's fields, or
// fewer than two blocks a superblock.
func buildClasses(payloads []uint64) []Class {
	if len(payloads) > math.MaxInt8+1 {
		panic(fmt.Sprintf("sizeclass: %d classes do not fit lookup's int8 entries", len(payloads)))
	}
	out := make([]Class, len(payloads))
	for i, pb := range payloads {
		bw := pb/mem.WordBytes + 1
		mc := SuperblockWords / bw
		if mc > atomicx.MaxBlocksPerSuperblock {
			panic(fmt.Sprintf("sizeclass: class %d (%d B) has %d blocks, exceeding anchor field width", i, pb, mc))
		}
		if mc < 2 {
			panic(fmt.Sprintf("sizeclass: class %d (%d B) has fewer than 2 blocks per superblock", i, pb))
		}
		out[i] = Class{
			Index:        i,
			PayloadBytes: pb,
			BlockWords:   bw,
			SBWords:      SuperblockWords,
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
