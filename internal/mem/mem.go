// Package mem provides the simulated 64-bit address space and the
// operating-system memory layer (the stand-in for mmap/munmap) that the
// allocators in this repository are built on.
//
// The paper's allocator runs over a real OS virtual address space; a Go
// reproduction cannot take over the process heap, so this package
// simulates one:
//
//   - The address space is word-addressed. A Ptr is a 64-bit word index
//     into a table of fixed-size granules (2 MiB on the default heap),
//     each backed by a []uint64 only once a region reaches it: like
//     address space under mmap, a heap costs what it touches. Ptr 0 is
//     the nil pointer (the first page of granule 0 is never handed out).
//
//   - Allocator-metadata accesses to heap words (block prefixes,
//     free-list links) go through Load, Store and CAS, as the C
//     implementation uses ordinary and atomic accesses on the process
//     heap: Load is an atomic read (a plain MOV on amd64), Store the
//     paper's plain store, which the caller's next CAS publishes, and
//     CAS a locked instruction. Under -race Store is atomic too (see
//     raceBuild). Payload accesses may use Get and Set.
//
//   - The OS layer (AllocRegion/FreeRegion) hands out page-granular
//     regions, exactly the role mmap/munmap play in the paper: it serves
//     superblock allocation, large-block allocation, and descriptor-
//     superblock allocation. It is itself lock-free, and it is sharded:
//     the address space is interleaved segment-by-segment across an
//     array of per-processor arenas, each with its own atomic bump
//     pointer and its own per-size lock-free freelists of returned
//     regions (Treiber stacks threaded through the first word of each
//     free region, with tagged heads for ABA safety). Frees route to
//     the arena that owns the address; an arena that runs dry steals
//     lock-free from its siblings before reporting ErrOutOfMemory, so
//     total capacity is that of the whole heap regardless of sharding.
//
// Two units divide the address space. The segment
// (Config.SegmentWordsLog2) is the unit arenas interleave by and the
// largest region. The granule, a power-of-two fraction of a segment that
// NewHeap derives from the heap's size, is the unit of address
// translation and of backing: a region no larger than a granule lies
// inside one granule, whose backing slice the first region to reach it
// allocates; a larger region is whole granules of its own, backed by one
// slice of exactly its length. Either way a region's words are
// contiguous in one backing slice (Words), and nothing is allocated or
// cleared for address space no region has reached.
//
// Cache behaviour is real: words of one superblock are contiguous in the
// backing array, so blocks carved from the same superblock share cache
// lines, which is what makes the paper's false-sharing benchmarks
// meaningful in this simulation.
package mem

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"repro/internal/atomicx"
	"repro/internal/telemetry"
)

// Ptr is a word index into a Heap's address space. The zero Ptr is nil.
type Ptr uint64

// IsNil reports whether p is the nil pointer.
func (p Ptr) IsNil() bool { return p == 0 }

// Add returns p advanced by n words.
func (p Ptr) Add(n uint64) Ptr { return p + Ptr(n) }

// Sub returns the distance in words from q to p (p must be >= q).
func (p Ptr) Sub(q Ptr) uint64 { return uint64(p - q) }

func (p Ptr) String() string { return fmt.Sprintf("mem.Ptr(%#x)", uint64(p)) }

// WordBytes is the size of one heap word in bytes; it is the paper's
// EIGHTBYTES (the block-prefix size and minimum alignment).
const WordBytes = 8

// PageWords is the OS page size in words (4 KB pages, as on the paper's
// AIX systems).
const PageWords = 512

const (
	defaultSegmentWordsLog2 = 21 // 2 Mi words = 16 MiB per segment
	defaultTotalWordsLog2   = 34 // 16 Gi words = 128 GiB of address space

	// A granule is 2^(TotalWordsLog2 - maxTableLog2) words, so the
	// translation table has at most 2^16 entries (512 KiB, which NewHeap
	// allocates and clears), but never below 2^minGranuleLog2 words = 64
	// pages: every region above exactBins pages is then a power of two
	// pages and so whole granules. The default heap gets 2 MiB granules.
	maxTableLog2   = 16
	minGranuleLog2 = 15
)

// exactBins is the number of small region bins, one per page count
// 1..exactBins. Regions larger than exactBins pages are rounded up to a
// power of two pages and binned by log2.
const exactBins = 64

// maxLog2Bins bounds the power-of-two bins (up to 2^40 words).
const maxLog2Bins = 40

// ErrOutOfMemory is returned when the simulated address space is
// exhausted.
var ErrOutOfMemory = errors.New("mem: simulated address space exhausted")

// Config parameterizes a Heap.
type Config struct {
	// SegmentWordsLog2 is the log2 of words per segment, the unit arenas
	// partition the address space by and the largest region. It costs
	// nothing until used: backing is materialized a granule at a time
	// (see NewHeap). 0 selects the default (2^21 words, 16 MiB).
	SegmentWordsLog2 uint
	// TotalWordsLog2 is the log2 of the total addressable words.
	// 0 selects the default (2^34 words).
	TotalWordsLog2 uint
	// Arenas is the number of per-processor arenas the region
	// allocator is sharded into. 0 or 1 selects a single arena, which
	// reproduces the unsharded global bump pointer and free bins
	// exactly. Values above the segment count are clamped so every
	// arena owns at least one segment.
	Arenas int
}

// Heap is a simulated word-addressed address space with an OS-like
// region allocator. All methods are safe for concurrent use; the region
// allocator is lock-free.
type Heap struct {
	// bases is the flat address-translation table: bases[g] is the
	// address of word 0 of granule g, or nil until the granule is
	// materialized. With granLog and granMask it is everything word
	// reads, so a heap word is one table load away from its Ptr. These
	// fields are written only by NewHeap (and bases' entries once each,
	// nil → base, by materialize) and come first so they share the
	// struct's first cache line with no counter: Heap fills the 128-byte
	// size class exactly (asserted below), which the Go allocator starts
	// on a line boundary, so the counters keep to the second line.
	bases    []unsafe.Pointer
	granLog  uint
	granMask uint64 // granule words - 1

	segLog    uint
	segWords  uint64
	maxWords  uint64
	numArenas uint64

	// arenas shard the region allocator. Segment s belongs to arena
	// s % numArenas; each arena bumps only within its own segments and
	// keeps its own free-region bins, so the bins of arena i only ever
	// hold regions whose addresses lie in arena i's segments.
	arenas []arenaShard

	// tele, when set, receives CAS-retry counts for the region
	// free-stack bins and bump pointers, and steal events. An atomic
	// pointer so SetTelemetry may race in-flight operations; loaded
	// only on CAS-failure and steal paths.
	tele atomic.Pointer[telemetry.Stripes]

	// liveWords/maxLiveWords are kept globally (not summed from the
	// arenas) so the high-water mark is a consistent single-counter
	// CAS-max, as before sharding.
	liveWords    atomic.Uint64
	maxLiveWords atomic.Uint64

	// regionHook, when set, is called whenever a region's words return
	// to the recycler — FreeRegion, and the hyperblock layer's
	// superblock free stack — *before* the words become reusable, so an
	// observer (the shadow-heap oracle) can drop any expectations it
	// holds about their contents. Loaded atomically; nil when unused.
	// Last field so the hook's presence does not shift the offsets of
	// the fields the word accessors touch.
	regionHook atomic.Pointer[func(p Ptr, words uint64)]
}

const (
	_ = 128 - unsafe.Sizeof(Heap{}) // either overflowing is a negative constant: no compile
	_ = unsafe.Sizeof(Heap{}) - 128
)

// arenaShard is one shard of the region allocator. Padded so that two
// arenas' hot bump pointers and bin heads never share a cache line.
type arenaShard struct {
	_    [64]byte
	next atomic.Uint64 // bump pointer (word index of next unreserved word)

	// Free-region bins. bins[0..exactBins-1] hold regions of exactly
	// i+1 pages; log2Bins[k] holds regions of exactly 2^k pages.
	bins     [exactBins]atomic.Uint64
	log2Bins [maxLog2Bins]atomic.Uint64

	// binRegions/log2BinRegions mirror the bins' populations with plain
	// counters so a live census (BinCensus) never has to walk freelist
	// links that concurrent pops may be unlinking. A push increments
	// *before* its head CAS and a pop decrements *after* its head CAS
	// succeeds; since a pop can only observe a region after the push's
	// CAS (which follows the increment), a counter is never negative —
	// at worst transiently high by in-flight pushes.
	binRegions     [exactBins]atomic.Uint64
	log2BinRegions [maxLog2Bins]atomic.Uint64

	stats arenaCounters
	_     [64]byte
}

type arenaCounters struct {
	reservedWords     atomic.Uint64 // address space consumed by this arena's bump
	liveWords         atomic.Uint64 // live words in regions this arena owns
	regionAllocs      atomic.Uint64 // allocations requested via this arena
	regionFrees       atomic.Uint64 // frees routed home to this arena
	reusedRegions     atomic.Uint64 // requests satisfied from a bin (own or stolen)
	steals            atomic.Uint64 // requests satisfied by a sibling arena
	skippedWords      atomic.Uint64 // words wasted skipping to an owned segment or a granule boundary
	materializedWords atomic.Uint64 // backing allocated for this arena's granules
}

// stealTestHook, when non-nil, is called before each sibling-arena
// steal attempt with (requester, victim). Test-only: lets tests
// interleave or abandon a thread mid-steal.
var stealTestHook func(requester, victim int)

// SetTelemetry attaches striped retry counters to the region
// free-stack push/pop and bump CAS loops (nil detaches). Safe to call
// while the heap is in use.
func (h *Heap) SetTelemetry(st *telemetry.Stripes) { h.tele.Store(st) }

// SetRegionHook installs fn to be called with (base, words) whenever a
// word range is recycled for reuse (FreeRegion, and superblocks entering
// the hyperblock layer's free stack), strictly before any later
// allocation can hand the range out again. One hook per heap; nil
// detaches. Safe to call while the heap is in use. The hook must not
// call back into the region allocator.
func (h *Heap) SetRegionHook(fn func(p Ptr, words uint64)) {
	if fn == nil {
		h.regionHook.Store(nil)
		return
	}
	h.regionHook.Store(&fn)
}

// noteRecycled fires the region hook, if any, for a range about to
// become reusable.
func (h *Heap) noteRecycled(p Ptr, words uint64) {
	if fn := h.regionHook.Load(); fn != nil {
		(*fn)(p, words)
	}
}

// ArenaStats is a point-in-time snapshot of one arena's counters.
// Request-side counters (RegionAllocs, ReusedRegions, Steals) are
// charged to the arena the request went through; partition-side
// counters (ReservedWords, MaterializedWords, LiveWords, RegionFrees,
// SkippedWords) are charged to the arena that owns the affected address,
// so each arena's LiveWords drains back to zero no matter which thread
// frees. MaterializedWords is the backing actually allocated for the
// reserved address space: whole granules, so it can exceed ReservedWords.
type ArenaStats struct {
	ReservedWords     uint64
	MaterializedWords uint64
	LiveWords         uint64
	RegionAllocs      uint64
	RegionFrees       uint64
	ReusedRegions     uint64
	Steals            uint64
	SkippedWords      uint64
}

// Stats is a point-in-time snapshot of heap counters. The scalar
// fields are sums over all arenas (LiveWords and MaxLiveWords come
// from a single global counter so the high-water mark is exact).
type Stats struct {
	ReservedWords     uint64 // address space consumed by the bump pointers
	MaterializedWords uint64 // backing allocated for it, in whole granules
	LiveWords         uint64 // words currently allocated to regions
	MaxLiveWords      uint64 // high-water mark of LiveWords
	RegionAllocs      uint64
	RegionFrees       uint64
	ReusedRegions     uint64
	Steals            uint64 // allocations served by a non-local arena
	SkippedWords      uint64
	Arenas            []ArenaStats // per-arena breakdown, indexed by arena
}

// NewHeap creates a heap with the given configuration.
func NewHeap(cfg Config) *Heap {
	segLog := cfg.SegmentWordsLog2
	if segLog == 0 {
		segLog = defaultSegmentWordsLog2
	}
	totalLog := cfg.TotalWordsLog2
	if totalLog == 0 {
		totalLog = defaultTotalWordsLog2
	}
	if totalLog < segLog {
		totalLog = segLog
	}
	if totalLog > atomicx.TaggedIdxBits {
		// Region freelist heads pack pointers into 40 bits.
		totalLog = atomicx.TaggedIdxBits
	}
	granLog := uint(min(max(int(totalLog)-maxTableLog2, minGranuleLog2), int(segLog)))
	h := &Heap{
		granLog:  granLog,
		granMask: 1<<granLog - 1,
		segLog:   segLog,
		segWords: 1 << segLog,
		maxWords: 1 << totalLog,
	}
	numSegs := h.maxWords >> segLog
	h.bases = make([]unsafe.Pointer, h.maxWords>>granLog)
	arenas := uint64(1)
	if cfg.Arenas > 1 {
		arenas = uint64(cfg.Arenas)
	}
	if arenas > numSegs {
		arenas = numSegs
	}
	h.numArenas = arenas
	h.arenas = make([]arenaShard, arenas)
	for i := range h.arenas {
		// Arena i starts bumping at the base of segment i, its first
		// owned segment.
		h.arenas[i].next.Store(uint64(i) << segLog)
	}
	// Reserve the first page so Ptr 0 is never a valid region address.
	h.arenas[0].next.Store(PageWords)
	h.arenas[0].stats.reservedWords.Store(PageWords)
	return h
}

// SegmentWords returns the number of words per segment. Regions never
// straddle a segment boundary; that any region's words are contiguous in
// one backing slice is the granule rules' doing (see bumpArena).
func (h *Heap) SegmentWords() uint64 { return h.segWords }

// MaxRegionWords returns the largest region the OS layer can serve.
func (h *Heap) MaxRegionWords() uint64 { return h.segWords }

// Arenas returns the number of arenas the region allocator is sharded
// into.
func (h *Heap) Arenas() int { return int(h.numArenas) }

// Arena returns a handle on arena i (taken modulo the arena count, so
// callers may pass a thread or processor id directly). The handle is a
// cheap value; all its methods are lock-free and safe for concurrent
// use.
func (h *Heap) Arena(i int) Arena {
	if i < 0 {
		i = -i
	}
	return Arena{h: h, idx: uint64(i) % h.numArenas}
}

// arenaOf returns the arena owning p's segment.
func (h *Heap) arenaOf(p Ptr) uint64 {
	return (uint64(p) >> h.segLog) % h.numArenas
}

// unmappedError is the panic value of an access to an address whose
// granule was never materialized. A typed value rather than a formatted
// string so that raising it costs the accessors no call and they stay
// within the inliner's budget; the message is built only if the panic is
// printed.
type unmappedError Ptr

func (e unmappedError) Error() string {
	return fmt.Sprintf("mem: access to unmapped address %v", Ptr(e))
}

// word translates p to the address of its backing word: one
// bounds-checked load from the granule table plus a masked offset. An
// address beyond the heap's total words fails the table's bounds check;
// one in a granule not yet materialized panics with unmappedError.
// (Masking the shift count tells the compiler it is below 64, which
// NewHeap guarantees, and saves the shift's overflow guard.)
func (h *Heap) word(p Ptr) *uint64 {
	base := atomic.LoadPointer(&h.bases[uint64(p)>>(h.granLog&63)])
	if base == nil {
		panic(unmappedError(p))
	}
	return (*uint64)(unsafe.Add(base, (uint64(p)&h.granMask)*WordBytes))
}

// Load atomically reads the word at p.
func (h *Heap) Load(p Ptr) uint64 { return atomic.LoadUint64(h.word(p)) }

// Store writes the word at p with the paper's plain store (Figure 6
// line 8): no barrier of its own. Whoever hands the word to another
// thread publishes it, as every caller does with a CAS (or a lock
// release) after its stores; on amd64 that saves a locked XCHG per
// word. Under -race it is atomic.StoreUint64, so the detector does not
// report a stale reader's Load racing with it (see raceBuild).
func (h *Heap) Store(p Ptr, v uint64) {
	if raceBuild {
		atomic.StoreUint64(h.word(p), v)
		return
	}
	*h.word(p) = v
}

// CAS performs a compare-and-swap on the word at p.
func (h *Heap) CAS(p Ptr, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(h.word(p), old, new)
}

// Get reads the word at p without atomicity. Intended for payload
// access by application code that owns the block.
func (h *Heap) Get(p Ptr) uint64 { return *h.word(p) }

// Set writes the word at p without atomicity. Intended for payload
// access by application code that owns the block. It compiles to the
// same write as Store and differs from it only under -race, where Store
// stays atomic.
func (h *Heap) Set(p Ptr, v uint64) { *h.word(p) = v }

// Words returns a slice aliasing the n words starting at p. The range
// must lie within one region: past the end of p's granule only the
// backing slice of a larger region continues, so every further granule
// the range enters must translate to where the first one's words run on.
func (h *Heap) Words(p Ptr, n uint64) []uint64 {
	w, gran := h.word(p), h.granMask+1
	ok := n <= h.segWords-uint64(p)&(h.segWords-1)
	for off := gran - uint64(p)&h.granMask; ok && off < n; off += gran {
		ok = unsafe.Pointer(h.word(p.Add(off))) == unsafe.Add(unsafe.Pointer(w), off*WordBytes)
	}
	if !ok {
		panic(fmt.Sprintf("mem: Words(%v, %d) straddles a segment boundary or two backing slices", p, n))
	}
	return unsafe.Slice(w, n)
}

// Mapped reports whether p lies in a materialized granule (and is thus
// safe to access). The nil pointer is not mapped.
func (h *Heap) Mapped(p Ptr) bool {
	if uint64(p) >= h.maxWords {
		return false
	}
	return atomic.LoadPointer(&h.bases[uint64(p)>>h.granLog]) != nil
}

// materialize backs the region [start, start+words) that a just bumped
// out of its partition. A region within one granule shares the granule's
// slice with its neighbours: whoever finds the entry nil allocates one
// and publishes it by CAS, and a racing loser drops its slice, so the
// entry is checked right before the make and nowhere earlier. A larger
// region is whole granules no other region can reach (bumpArena), so its
// entries are its own to store: interior addresses of one slice of
// exactly its length, contiguous for Words.
func (h *Heap) materialize(a *arenaShard, start, words uint64) {
	g, gran := start>>h.granLog, h.granMask+1
	if words > gran {
		s := make([]uint64, words)
		for off := uint64(0); off < words; off += gran {
			atomic.StorePointer(&h.bases[g+off>>h.granLog], unsafe.Pointer(&s[off]))
		}
		a.stats.materializedWords.Add(words)
	} else if atomic.LoadPointer(&h.bases[g]) == nil &&
		atomic.CompareAndSwapPointer(&h.bases[g], nil, unsafe.Pointer(unsafe.SliceData(make([]uint64, gran)))) {
		a.stats.materializedWords.Add(gran)
	}
}

// RegionWords returns the actual number of words the OS layer reserves
// for a request of n words: page-rounded, and above exactBins pages
// rounded to the next power of two pages so that freed regions are
// exactly reusable.
func RegionWords(n uint64) uint64 {
	if n == 0 {
		n = 1
	}
	pages := (n + PageWords - 1) / PageWords
	if pages <= exactBins {
		return pages * PageWords
	}
	return PageWords << bits.Len64(pages-1)
}

func (a *arenaShard) binFor(words uint64) *atomic.Uint64 {
	pages := words / PageWords
	if pages <= exactBins {
		return &a.bins[pages-1]
	}
	return &a.log2Bins[bits.Len64(pages)-1]
}

// countFor returns the census counter paired with binFor(words).
func (a *arenaShard) countFor(words uint64) *atomic.Uint64 {
	pages := words / PageWords
	if pages <= exactBins {
		return &a.binRegions[pages-1]
	}
	return &a.log2BinRegions[bits.Len64(pages)-1]
}

// Arena is a handle on one shard of the region allocator. Allocations
// through an Arena prefer that arena's free bins and address-space
// partition, falling back to lock-free stealing from sibling arenas;
// frees always route to the arena owning the freed address, whichever
// handle they go through.
type Arena struct {
	h   *Heap
	idx uint64
}

// Index returns the arena's index within the heap.
func (a Arena) Index() int { return int(a.idx) }

// AllocRegion reserves a region of at least n words and returns its
// base pointer and actual size in words. It corresponds to the paper's
// "allocate directly from the OS" (mmap). Lock-free.
func (a Arena) AllocRegion(n uint64) (Ptr, uint64, error) {
	h := a.h
	words := RegionWords(n)
	if words > h.segWords {
		return 0, 0, fmt.Errorf("mem: region of %d words exceeds segment size %d: %w",
			words, h.segWords, ErrOutOfMemory)
	}
	p, err := h.allocWords(a.idx, words, 1)
	if err != nil {
		return 0, 0, err
	}
	return p, words, nil
}

// AllocRegionAligned reserves a region of at least n words whose base
// is a multiple of align words (a power of two not exceeding the
// segment size). Used by the hyperblock layer, which locates a
// superblock's hyperblock descriptor by address masking. Lock-free.
func (a Arena) AllocRegionAligned(n, align uint64) (Ptr, error) {
	h := a.h
	if align == 0 || align&(align-1) != 0 {
		return 0, fmt.Errorf("mem: alignment %d is not a power of two", align)
	}
	if align > h.segWords {
		return 0, fmt.Errorf("mem: alignment %d exceeds segment size: %w", align, ErrOutOfMemory)
	}
	words := RegionWords(n)
	if words > h.segWords {
		return 0, fmt.Errorf("mem: region of %d words exceeds segment size %d: %w",
			words, h.segWords, ErrOutOfMemory)
	}
	return h.allocWords(a.idx, words, align)
}

// FreeRegion returns a region obtained from any arena of the same heap
// to the OS layer. The region routes to the arena owning its address,
// not to a; the method exists so code holding only an Arena handle can
// free. Lock-free.
func (a Arena) FreeRegion(p Ptr, n uint64) { a.h.FreeRegion(p, n) }

// AllocRegion reserves a region through arena 0. Convenience for
// single-arena heaps and callers without a processor identity; with
// Config.Arenas <= 1 it is the whole region allocator.
func (h *Heap) AllocRegion(n uint64) (Ptr, uint64, error) {
	return h.Arena(0).AllocRegion(n)
}

// AllocRegionAligned reserves an aligned region through arena 0 (see
// Arena.AllocRegionAligned).
func (h *Heap) AllocRegionAligned(n, align uint64) (Ptr, error) {
	return h.Arena(0).AllocRegionAligned(n, align)
}

// FreeRegion returns a region obtained from AllocRegion(n) (same n) to
// the OS layer, routing it to the bins of the arena that owns its
// address. It corresponds to munmap. Lock-free.
func (h *Heap) FreeRegion(p Ptr, n uint64) {
	if memDebug && n != RegionWords(n) {
		panic(fmt.Sprintf("mem: FreeRegion(%v, %d): size is not region-rounded (RegionWords gives %d)",
			p, n, RegionWords(n)))
	}
	words := RegionWords(n)
	h.noteRecycled(p, words)
	owner := h.arenaOf(p)
	st := &h.arenas[owner].stats
	st.regionFrees.Add(1)
	st.liveWords.Add(^(words - 1)) // subtract
	h.liveWords.Add(^(words - 1))
	h.pushRegion(owner, p, words)
}

// allocWords implements the allocation policy shared by AllocRegion
// and AllocRegionAligned: local bins, then the local partition's bump
// pointer, then — only when the local arena is dry — each sibling's
// bins and partition in ring order. Stealing prefers siblings' bins
// over their fresh address space for the same reason local allocation
// does: reuse keeps the footprint down. Returns ErrOutOfMemory only
// when every arena is exhausted, so sharding does not change the
// heap's capacity semantics.
func (h *Heap) allocWords(ai, words, align uint64) (Ptr, error) {
	if p := h.popAligned(ai, words, align); !p.IsNil() {
		h.noteAlloc(ai, ai, words, true, false)
		return p, nil
	}
	if p, ok := h.bumpArena(ai, words, align); ok {
		h.noteAlloc(ai, ai, words, false, false)
		return p, nil
	}
	for off := uint64(1); off < h.numArenas; off++ {
		v := (ai + off) % h.numArenas
		if hook := stealTestHook; hook != nil {
			hook(int(ai), int(v))
		}
		if p := h.popAligned(v, words, align); !p.IsNil() {
			h.noteAlloc(ai, v, words, true, true)
			return p, nil
		}
	}
	for off := uint64(1); off < h.numArenas; off++ {
		v := (ai + off) % h.numArenas
		if p, ok := h.bumpArena(v, words, align); ok {
			h.noteAlloc(ai, v, words, false, true)
			return p, nil
		}
	}
	return 0, ErrOutOfMemory
}

// popAligned makes one reuse attempt from arena ai's bin for the size:
// the bin may hold a region with the right alignment (e.g. a
// previously released hyperblock). A misaligned pop is pushed back for
// unaligned callers rather than retried.
func (h *Heap) popAligned(ai, words, align uint64) Ptr {
	p := h.popRegion(ai, words)
	if p.IsNil() || align <= 1 || uint64(p)&(align-1) == 0 {
		return p
	}
	h.pushRegion(ai, p, words)
	return 0
}

func (h *Heap) noteAlloc(requester, owner, words uint64, reused, stolen bool) {
	rs := &h.arenas[requester].stats
	rs.regionAllocs.Add(1)
	if reused {
		rs.reusedRegions.Add(1)
	}
	if stolen {
		rs.steals.Add(1)
		if st := h.tele.Load(); st != nil {
			st.Retry(telemetry.SiteRegionSteal, requester)
		}
	}
	h.arenas[owner].stats.liveWords.Add(words)
	live := h.liveWords.Add(words)
	for {
		max := h.maxLiveWords.Load()
		if live <= max || h.maxLiveWords.CompareAndSwap(max, live) {
			break
		}
	}
}

// popRegion pops a region from arena ai's freelist bin for the exact
// size, or returns nil. Classic IBM freelist pop with a tagged head [8].
func (h *Heap) popRegion(ai, words uint64) Ptr {
	bin := h.arenas[ai].binFor(words)
	for {
		oldHead := bin.Load()
		t := atomicx.UnpackTagged(oldHead)
		if t.Idx == 0 {
			return 0
		}
		next := h.Load(Ptr(t.Idx))
		newHead := atomicx.Tagged{Idx: next, Tag: t.Tag + 1}.Pack()
		if bin.CompareAndSwap(oldHead, newHead) {
			h.arenas[ai].countFor(words).Add(^uint64(0)) // census counter: see arenaShard
			return Ptr(t.Idx)
		}
		if st := h.tele.Load(); st != nil {
			st.Retry(telemetry.SiteRegionPop, t.Idx)
		}
	}
}

// pushRegion pushes a region onto arena ai's freelist bin for its
// size. ai must be the arena owning p's address.
func (h *Heap) pushRegion(ai uint64, p Ptr, words uint64) {
	bin := h.arenas[ai].binFor(words)
	// Incremented before the CAS so the paired pop's decrement (which
	// can only follow a successful push) never drives the counter
	// negative; see arenaShard.
	h.arenas[ai].countFor(words).Add(1)
	for {
		oldHead := bin.Load()
		t := atomicx.UnpackTagged(oldHead)
		h.Store(p, t.Idx)
		atomicx.Fence() // paper Fig 7 line 3: order link store before head CAS
		newHead := atomicx.Tagged{Idx: uint64(p), Tag: t.Tag + 1}.Pack()
		if bin.CompareAndSwap(oldHead, newHead) {
			return
		}
		if st := h.tele.Load(); st != nil {
			st.Retry(telemetry.SiteRegionPush, uint64(p))
		}
	}
}

// bumpArena reserves words from arena ai's never-before-used address
// space, at the given alignment (1 for none). The bump pointer walks
// only segments the arena owns (segment index ≡ ai mod numArenas),
// jumping numArenas segments ahead when a request would straddle the
// current segment's end. Within a segment it keeps the two rules
// materialize relies on: a region larger than a granule starts on a
// granule boundary (being a power of two pages, it ends on one too), and
// a smaller one that would straddle a boundary starts on the next one.
// Returns false when the arena's partition is exhausted.
func (h *Heap) bumpArena(ai, words, align uint64) (Ptr, bool) {
	a := &h.arenas[ai]
	for {
		cur := a.next.Load()
		start := (cur + align - 1) &^ (align - 1)
		if words > h.granMask+1 || (start+words-1)>>h.granLog != start>>h.granLog {
			start = (start + h.granMask) &^ h.granMask // satisfies align: both are powers of two
		}
		seg := start >> h.segLog
		if seg%h.numArenas != ai {
			// Filling a segment exactly (or aligning past its end)
			// leaves the pointer at a segment this arena does not own;
			// advance to the base of the next owned one. Segment bases
			// satisfy every legal alignment.
			seg += (ai + h.numArenas - seg%h.numArenas) % h.numArenas
			start = seg << h.segLog
		} else if (start+words-1)>>h.segLog != seg {
			seg += h.numArenas
			start = seg << h.segLog
		}
		end := start + words
		if end > h.maxWords {
			return 0, false
		}
		if a.next.CompareAndSwap(cur, end) {
			if start != cur {
				a.stats.skippedWords.Add(start - cur)
			}
			a.stats.reservedWords.Add(end - cur)
			h.materialize(a, start, words)
			return Ptr(start), true
		}
		if st := h.tele.Load(); st != nil {
			st.Retry(telemetry.SiteRegionBump, cur)
		}
	}
}

// Stats returns a snapshot of the heap counters.
func (h *Heap) Stats() Stats {
	s := Stats{
		LiveWords:    h.liveWords.Load(),
		MaxLiveWords: h.maxLiveWords.Load(),
		Arenas:       make([]ArenaStats, len(h.arenas)),
	}
	for i := range h.arenas {
		c := &h.arenas[i].stats
		as := ArenaStats{
			ReservedWords:     c.reservedWords.Load(),
			MaterializedWords: c.materializedWords.Load(),
			LiveWords:         c.liveWords.Load(),
			RegionAllocs:      c.regionAllocs.Load(),
			RegionFrees:       c.regionFrees.Load(),
			ReusedRegions:     c.reusedRegions.Load(),
			Steals:            c.steals.Load(),
			SkippedWords:      c.skippedWords.Load(),
		}
		s.Arenas[i] = as
		s.ReservedWords += as.ReservedWords
		s.MaterializedWords += as.MaterializedWords
		s.RegionAllocs += as.RegionAllocs
		s.RegionFrees += as.RegionFrees
		s.ReusedRegions += as.ReusedRegions
		s.Steals += as.Steals
		s.SkippedWords += as.SkippedWords
	}
	return s
}

// BinStat describes one non-empty free-region bin of one arena.
type BinStat struct {
	Arena       int
	RegionWords uint64 // exact size of every region in the bin
	Regions     int    // regions currently on the bin's freelist
}

// RegionBins walks every arena's free-region bins and reports their
// occupancy (non-empty bins only, ordered by arena then size). The
// walk follows freelist links without synchronizing against concurrent
// pushes and pops, so it must run at a quiescent point; it serves
// cmd/heapinfo-style inspection, not the allocation path.
func (h *Heap) RegionBins() []BinStat {
	var out []BinStat
	count := func(head *atomic.Uint64) int {
		n := 0
		for p := Ptr(atomicx.UnpackTagged(head.Load()).Idx); !p.IsNil(); p = Ptr(h.Load(p)) {
			n++
		}
		return n
	}
	for i := range h.arenas {
		a := &h.arenas[i]
		for b := range a.bins {
			if n := count(&a.bins[b]); n > 0 {
				out = append(out, BinStat{Arena: i, RegionWords: uint64(b+1) * PageWords, Regions: n})
			}
		}
		for k := range a.log2Bins {
			if n := count(&a.log2Bins[k]); n > 0 {
				out = append(out, BinStat{Arena: i, RegionWords: PageWords << k, Regions: n})
			}
		}
	}
	return out
}

// ArenaBins is a live census of one arena's free-region bins, built
// from the push/pop-maintained counters (never from freelist links, so
// it is safe — and race-detector-clean — during churn).
type ArenaBins struct {
	Arena int
	// PartitionWords is the arena's address-space partition capacity:
	// the total words of the segments it owns.
	PartitionWords uint64
	// FreeRegions/FreeWords total the regions parked in the arena's
	// bins awaiting reuse (the external-fragmentation inventory).
	FreeRegions uint64
	FreeWords   uint64
	// Bins lists the non-empty bins, ordered by size.
	Bins []BinStat
}

// PartitionWords returns the address-space capacity of arena i's
// partition (segment index ≡ i mod the arena count).
func (h *Heap) PartitionWords(i int) uint64 {
	numSegs := h.maxWords >> h.segLog
	ai := uint64(i) % h.numArenas
	return (numSegs - ai + h.numArenas - 1) / h.numArenas * h.segWords
}

// BinCensus reports every arena's free-region bin occupancy from the
// census counters. Unlike RegionBins it is safe to call during churn:
// each bin's count is one atomic load, transiently high by at most the
// in-flight pushes (see arenaShard). Counts are exact at quiescence.
func (h *Heap) BinCensus() []ArenaBins {
	out := make([]ArenaBins, len(h.arenas))
	for i := range h.arenas {
		a := &h.arenas[i]
		ab := ArenaBins{Arena: i, PartitionWords: h.PartitionWords(i)}
		note := func(regions, regionWords uint64) {
			if regions == 0 {
				return
			}
			ab.FreeRegions += regions
			ab.FreeWords += regions * regionWords
			ab.Bins = append(ab.Bins, BinStat{Arena: i, RegionWords: regionWords, Regions: int(regions)})
		}
		for b := range a.binRegions {
			note(a.binRegions[b].Load(), uint64(b+1)*PageWords)
		}
		for k := range a.log2BinRegions {
			note(a.log2BinRegions[k].Load(), PageWords<<k)
		}
		out[i] = ab
	}
	return out
}

// ResetMaxLive resets the live-words high-water mark to the current
// live count (used between benchmark phases).
func (h *Heap) ResetMaxLive() {
	h.maxLiveWords.Store(h.liveWords.Load())
}
