package core

import (
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/telemetry"
)

// Descriptor is a superblock descriptor (paper Figure 3). Each
// superblock of every size class is associated with one descriptor;
// every allocated block's one-word prefix identifies its descriptor.
//
// Descriptors are identified by dense indices into a chunked table
// rather than by address: the Active word packs a 58-bit descriptor
// index with 6 credit bits, reproducing the paper's trick of carving
// credits out of the alignment bits of descriptor addresses. Index 0 is
// reserved as NULL.
//
// As in the paper (§3.2.5), descriptor storage is never returned to the
// OS; retired descriptors are recycled through a lock-free freelist
// (DescAvail), which since the pool refactor lives in internal/pool —
// chunk-carve growth (Figure 7), wide-tag ABA prevention in place of
// the paper's SafeCAS hazard pointers, and one DescAvail head. Fields
// that may be written during one lifetime and read during a concurrent
// stale access from a previous lifetime are atomic, which also keeps
// the implementation clean under the Go race detector.
//
// A descriptor is two 64-byte cache lines (pinned in layout.go) and pool
// chunks start on a line boundary, so — as with the paper's
// 64-byte-aligned descriptors — no two superblocks' Anchor words share a
// line. The first line is what the owner's pops read, the second what a
// free reads first, the remote stack among it: a remote free
// (pushRemote) never takes the line the owner's pops CAS.
type Descriptor struct {
	// Anchor is the packed anchor word (avail, count, state, tag); all
	// malloc/free coordination for the superblock happens through CAS
	// on this word.
	Anchor atomic.Uint64

	// next links retired descriptors in the DescAvail freelist
	// (Figure 7); it holds a packed (index, tag) word managed by the
	// pool.
	next atomic.Uint64

	// sb is the base pointer of the associated superblock.
	sb atomic.Uint64

	// szWords is the block size in words (payload + prefix).
	szWords atomic.Uint64

	// maxCount is the number of blocks in the superblock.
	maxCount atomic.Uint64

	// classIdx is the size-class index of the superblock.
	classIdx atomic.Int64
	_        [2]uint64

	remote atomic.Uint64 // the remote stack (remote.go)

	// heapID identifies the processor heap that owns (last owned) the
	// superblock. Written on ownership transfer (MallocFromPartial
	// line 3), read by free (Figure 6 line 13) and to tell a remote free.
	heapID atomic.Uint64

	freeSB atomic.Uint64 // sb again, for free on this line

	// szMagic is ceil(2^64/szWords), the reciprocal used to divide a
	// block offset by the block size with one multiplication in free
	// (exact for all offsets within a superblock).
	szMagic atomic.Uint64
	_       [4]uint64
}

// PoolNext exposes the freelist link word to the descriptor pool.
func (d *Descriptor) PoolNext() *atomic.Uint64 { return &d.next }

// SB returns the superblock base pointer.
func (d *Descriptor) SB() mem.Ptr { return mem.Ptr(d.sb.Load()) }

// Size returns the block size in words.
func (d *Descriptor) Size() uint64 { return d.szWords.Load() }

// MaxCount returns the number of blocks in the superblock.
func (d *Descriptor) MaxCount() uint64 { return d.maxCount.Load() }

// ClassIndex returns the size-class index.
func (d *Descriptor) ClassIndex() int { return int(d.classIdx.Load()) }

// HeapID returns the id of the processor heap that last owned the
// superblock.
func (d *Descriptor) HeapID() uint64 { return d.heapID.Load() }

const (
	// descChunkLog2 is the log2 of descriptors per table chunk; a chunk
	// is also the unit of descriptor-superblock allocation (the paper's
	// DESCSBSIZE), 8 KiB. A larger chunk is carved and walked whole by
	// allocators that use a handful of descriptors; TestNewFootprint
	// records the trial of 9.
	descChunkLog2 = 6
	descChunk     = 1 << descChunkLog2

	// maxDescChunks bounds the descriptor table (2^25 descriptors); the
	// largest heap, 2^31 words, needs under 2^22.
	maxDescChunks = 1 << 19
)

// descPool is the descriptor store: the paper's chunked table plus the
// DescAvail freelist of Figure 7, provided by the generic pool layer.
type descPool = pool.Pool[Descriptor, *Descriptor]

// newDescPool sizes the descriptor table, like the partial lists, for
// the superblocks the heap has room for rather than for the largest
// heap: a descriptor is in use while its superblock is live or while,
// EMPTY, it is still linked in a partial list, and listRemoveEmptyDesc
// keeps the EMPTY ones under half of each list — at most one for each
// live superblock. On top of that comes the chunk of reserved index 0,
// and two chunks a processor for descriptors that are retired but not
// where a carving thread looks: a chunk carved by a thread that lost
// Figure 7's install race (line 9) and is about to be pushed, at most
// one a processor, so the second is slack. Beyond the table Malloc
// fails with pool.ErrExhausted.
func newDescPool(maxSuperblocks uint64, procs int) *descPool {
	return pool.New[Descriptor, *Descriptor](pool.Config{
		ChunkLog2:  descChunkLog2,
		MaxChunks:  min(1+(2*maxSuperblocks+descChunk-1)/descChunk+2*uint64(procs), maxDescChunks),
		AllocSite:  telemetry.SiteDescAlloc,
		RetireSite: telemetry.SiteDescRetire,
	})
}
