// Package mem provides the simulated 64-bit address space and the
// operating-system memory layer (the stand-in for mmap/munmap) that the
// allocators in this repository are built on.
//
// The paper's allocator runs over a real OS virtual address space; a Go
// reproduction cannot take over the process heap, so this package
// simulates one:
//
//   - The address space is word-addressed. A Ptr is a 64-bit word index
//     into a table of fixed-size granules (256 KiB, a constant), each
//     backed by a []uint64 only once a region reaches it: like
//     address space under mmap, a heap costs what it touches. Ptr 0 is
//     the nil pointer (the first page of granule 0 is never handed out).
//
//   - Allocator-metadata accesses to heap words (block prefixes,
//     free-list links) go through Load, Store and CAS, as the C
//     implementation uses ordinary and atomic accesses on the process
//     heap: Load is an atomic read (a plain MOV on amd64), Store the
//     paper's plain store, which the caller's next CAS publishes, and
//     CAS a locked instruction. Under -race Store is atomic too (see
//     atomicx.PlainStore). Payload accesses may use Get and Set.
//
//   - The OS layer (AllocRegion/FreeRegion) hands out page-granular
//     regions, exactly the role mmap/munmap play in the paper: it serves
//     superblock allocation, large-block allocation, and descriptor-
//     superblock allocation. It is one lock-free region allocator shared
//     by every thread, as the paper's OS is: an atomic bump pointer over
//     never-used address space and per-size lock-free freelists of
//     returned regions (lfstack stacks threaded through the first word of
//     each free region, regionLinks).
//
// Two units divide the address space. The segment
// (Config.SegmentWordsLog2) is the largest region: no region straddles a
// segment boundary. The granule, 2^granLog words on every heap, is the
// unit of address translation and of backing: a region no larger than a
// granule lies inside one granule, whose backing slice the first region
// to reach it allocates; a larger region is whole granules of its own,
// backed by one slice of exactly its length. Either way a region's words
// are contiguous in one backing slice (Words), and nothing is allocated
// or cleared for address space no region has reached.
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
	"repro/internal/lfstack"
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
	defaultTotalWordsLog2   = 31 // 2 Gi words = 16 GiB of address space

	// A granule is 2^15 words = 256 KiB = exactBins pages, so every
	// region above exactBins pages is a power of two pages and so whole
	// granules. It is a constant so that word translates an address with
	// an immediate shift and mask.
	granLog   = 15
	granWords = 1 << granLog

	// maxTotalWordsLog2 bounds the address space so that the translation
	// table has at most 2^16 entries (512 KiB, which NewHeap allocates
	// and clears).
	maxTotalWordsLog2 = granLog + 16
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
	// SegmentWordsLog2 is the log2 of words per segment, the largest
	// region. It costs nothing until used: backing is materialized a
	// granule at a time (see NewHeap). 0 selects the default (2^21
	// words, 16 MiB).
	SegmentWordsLog2 uint
	// TotalWordsLog2 is the log2 of the total addressable words.
	// 0 selects the default (2^31 words, 16 GiB). It is raised to
	// SegmentWordsLog2 and to one granule (15) and clamped to 31, so
	// 2^31 words is also the largest heap; a segment is clamped to it.
	TotalWordsLog2 uint
}

// Heap is a simulated word-addressed address space with an OS-like
// region allocator. All methods are safe for concurrent use; the region
// allocator is lock-free.
type Heap struct {
	// bases is the flat address-translation table: bases[g] is the
	// address of word 0 of granule g, or nil until the granule is
	// materialized. It is everything word reads besides the constant
	// granLog, so a heap word is one table load away from its Ptr. These
	// fields are written only by NewHeap (and bases' entries once each,
	// nil → base, by materialize) and come first so they share the
	// struct's first cache line with no counter: Heap fills the 128-byte
	// size class exactly (asserted below), which the Go allocator starts
	// on a line boundary, so the counters keep to the second line.
	bases []unsafe.Pointer

	segLog   uint
	segWords uint64
	maxWords uint64

	// os is the region allocator: bump pointer, free-region bins and
	// their counters, behind a pointer so Heap stays two lines.
	os *regions

	// spare is a granule-sized backing slice whose materialize lost the
	// race to publish it: never handed out, so still zero, and the next
	// materialize takes it instead of allocating one. Threads bumping
	// one pointer reach each fresh granule together, so losers are
	// common.
	spare atomic.Pointer[uint64]

	// tele, when set, receives CAS-retry counts for the region
	// free-stack bins and the bump pointer. An atomic pointer so
	// SetTelemetry may race in-flight operations; loaded only on
	// CAS-failure paths.
	tele atomic.Pointer[telemetry.Stripes]

	liveWords    atomic.Uint64 // words currently allocated to regions
	maxLiveWords atomic.Uint64 // its high-water mark, by CAS-max

	// regionHook, when set, is called whenever a region's words return
	// to the recycler — FreeRegion, and the hyperblock layer's
	// superblock free stack — *before* the words become reusable, so an
	// observer (the shadow-heap oracle) can drop any expectations it
	// holds about their contents. Loaded atomically; nil when unused.
	// Last field so the hook's presence does not shift the offsets of
	// the fields the word accessors touch.
	regionHook atomic.Pointer[func(p Ptr, words uint64)]

	_ [32]byte // to the 128-byte size class
}

const (
	_ = 128 - unsafe.Sizeof(Heap{}) // either overflowing is a negative constant: no compile
	_ = unsafe.Sizeof(Heap{}) - 128
)

// regions is the region allocator's state.
type regions struct {
	// next is the bump pointer, the word index of the next unreserved
	// word: it is also the address space reserved so far.
	next atomic.Uint64

	// Free-region bins. bins[0..exactBins-1] hold regions of exactly
	// i+1 pages; log2Bins[k] holds regions of exactly 2^k pages.
	bins     [exactBins]lfstack.Stack
	log2Bins [maxLog2Bins]lfstack.Stack

	// binRegions/log2BinRegions mirror the bins' populations with plain
	// counters so a live census (BinCensus) never has to walk freelist
	// links that concurrent pops may be unlinking. A push increments
	// *before* its head CAS and a pop decrements *after* its head CAS
	// succeeds; since a pop can only observe a region after the push's
	// CAS (which follows the increment), a counter is never negative —
	// at worst transiently high by in-flight pushes.
	binRegions     [exactBins]atomic.Uint64
	log2BinRegions [maxLog2Bins]atomic.Uint64

	allocs            atomic.Uint64 // regions handed out
	frees             atomic.Uint64 // regions returned
	reused            atomic.Uint64 // allocations served from a bin
	skippedWords      atomic.Uint64 // words the bump skipped to a granule or segment boundary
	materializedWords atomic.Uint64 // backing allocated for reserved granules
}

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

// Stats is a point-in-time snapshot of heap counters.
type Stats struct {
	ReservedWords     uint64 // address space consumed by the bump pointer
	MaterializedWords uint64 // backing allocated for it, in whole granules
	LiveWords         uint64 // words currently allocated to regions
	MaxLiveWords      uint64 // high-water mark of LiveWords
	RegionAllocs      uint64
	RegionFrees       uint64
	ReusedRegions     uint64 // allocations served from a free-region bin
	// Steals is always 0: one region allocator has no sibling to steal
	// from. The field stays while the benchmark's mem.steals_per_kop
	// reads it.
	Steals       uint64
	SkippedWords uint64 // words the bump skipped to a granule or segment boundary
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
	totalLog = min(max(totalLog, segLog, granLog), maxTotalWordsLog2)
	segLog = min(segLog, totalLog)
	h := &Heap{
		segLog:   segLog,
		segWords: 1 << segLog,
		maxWords: 1 << totalLog,
		os:       new(regions),
	}
	h.bases = make([]unsafe.Pointer, h.maxWords/granWords)
	// Reserve the first page so Ptr 0 is never a valid region address.
	h.os.next.Store(PageWords)
	return h
}

// SegmentWords returns the number of words per segment. Regions never
// straddle a segment boundary; that any region's words are contiguous in
// one backing slice is the granule rules' doing (see bump).
func (h *Heap) SegmentWords() uint64 { return h.segWords }

// MaxRegionWords returns the largest region the OS layer can serve.
func (h *Heap) MaxRegionWords() uint64 { return h.segWords }

// TotalWords returns the size of the address space in words.
func (h *Heap) TotalWords() uint64 { return h.maxWords }

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
// bounds-checked load from the granule table plus a masked offset, the
// shift and the mask both immediates. An address beyond the heap's total
// words fails the table's bounds check; one in a granule not yet
// materialized panics with unmappedError.
func (h *Heap) word(p Ptr) *uint64 {
	base := atomic.LoadPointer(&h.bases[p>>granLog])
	if base == nil {
		panic(unmappedError(p))
	}
	return (*uint64)(unsafe.Add(base, (uint64(p)&(granWords-1))*WordBytes))
}

// Load atomically reads the word at p.
func (h *Heap) Load(p Ptr) uint64 { return atomic.LoadUint64(h.word(p)) }

// Store writes the word at p with the paper's plain store (Figure 6
// line 8): no barrier of its own. Whoever hands the word to another
// thread publishes it, as every caller does with a CAS (or a lock
// release) after its stores; on amd64 that saves a locked XCHG per
// word. Under -race it is atomic.StoreUint64, so the detector does not
// report a stale reader's Load racing with it (atomicx.PlainStore).
func (h *Heap) Store(p Ptr, v uint64) { atomicx.PlainStore(h.word(p), v) }

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
	w := h.word(p)
	ok := n <= h.segWords-uint64(p)&(h.segWords-1)
	for off := granWords - uint64(p)&(granWords-1); ok && off < n; off += granWords {
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
	return atomic.LoadPointer(&h.bases[p>>granLog]) != nil
}

// materialize backs the region [start, start+words) that bump just
// reserved. A region within one granule shares the granule's slice with
// its neighbours: whoever finds the entry nil publishes a slice by CAS —
// the spare one if there is one, else a new one — and a racing loser
// parks its slice, still zero, in the spare slot for the next fresh
// granule (dropping it only if the slot is full). The entry is checked
// right before the slice is taken and nowhere earlier. Both slot
// operations are single atomics, so a thread that dies between them
// loses Go memory and blocks nobody. A larger region is whole granules
// no other region can reach (bump), so its entries are its own to store:
// interior addresses of one slice of exactly its length, contiguous for
// Words.
func (h *Heap) materialize(start, words uint64) {
	g := start >> granLog
	if words > granWords {
		s := make([]uint64, words)
		for off := uint64(0); off < words; off += granWords {
			atomic.StorePointer(&h.bases[g+off>>granLog], unsafe.Pointer(&s[off]))
		}
		h.os.materializedWords.Add(words)
		return
	}
	if atomic.LoadPointer(&h.bases[g]) != nil {
		return
	}
	s := h.spare.Swap(nil)
	if s == nil {
		s = unsafe.SliceData(make([]uint64, granWords))
	}
	if atomic.CompareAndSwapPointer(&h.bases[g], nil, unsafe.Pointer(s)) {
		h.os.materializedWords.Add(granWords)
	} else {
		h.spare.CompareAndSwap(nil, s)
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

// regionLinks is the link storage of the region bins and the hyperblock
// free stack: a free region's first heap word holds the next region's
// address, written with Store, the plain store the stack's head CAS
// publishes.
type regionLinks struct{ h *Heap }

func (l regionLinks) Next(p uint64) uint64   { return l.h.Load(Ptr(p)) }
func (l regionLinks) SetNext(p, next uint64) { l.h.Store(Ptr(p), next) }

func (r *regions) binFor(words uint64) *lfstack.Stack {
	pages := words / PageWords
	if pages <= exactBins {
		return &r.bins[pages-1]
	}
	return &r.log2Bins[bits.Len64(pages)-1]
}

// countFor returns the census counter paired with binFor(words).
func (r *regions) countFor(words uint64) *atomic.Uint64 {
	pages := words / PageWords
	if pages <= exactBins {
		return &r.binRegions[pages-1]
	}
	return &r.log2BinRegions[bits.Len64(pages)-1]
}

// AllocRegion reserves a region of at least n words and returns its
// base pointer and actual size in words. It corresponds to the paper's
// "allocate directly from the OS" (mmap). Lock-free.
func (h *Heap) AllocRegion(n uint64) (Ptr, uint64, error) {
	words := RegionWords(n)
	if words > h.segWords {
		return 0, 0, fmt.Errorf("mem: region of %d words exceeds segment size %d: %w",
			words, h.segWords, ErrOutOfMemory)
	}
	p, err := h.allocWords(words, 1)
	if err != nil {
		return 0, 0, err
	}
	return p, words, nil
}

// AllocRegionAligned reserves a region of at least n words whose base
// is a multiple of align words (a power of two not exceeding the
// segment size). Used by the hyperblock layer, which locates a
// superblock's hyperblock descriptor by address masking. Lock-free.
func (h *Heap) AllocRegionAligned(n, align uint64) (Ptr, error) {
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
	return h.allocWords(words, align)
}

// FreeRegion returns a region obtained from AllocRegion(n) (same n) to
// the OS layer's bins. It corresponds to munmap. Lock-free.
func (h *Heap) FreeRegion(p Ptr, n uint64) {
	if memDebug && n != RegionWords(n) {
		panic(fmt.Sprintf("mem: FreeRegion(%v, %d): size is not region-rounded (RegionWords gives %d)",
			p, n, RegionWords(n)))
	}
	words := RegionWords(n)
	h.noteRecycled(p, words)
	h.os.frees.Add(1)
	h.liveWords.Add(^(words - 1)) // subtract
	h.pushRegion(p, words)
}

// allocWords implements the allocation policy shared by AllocRegion
// and AllocRegionAligned: the size's bin first, because reuse keeps the
// footprint down, then fresh address space. Returns ErrOutOfMemory only
// when the bin is empty and the address space exhausted.
func (h *Heap) allocWords(words, align uint64) (Ptr, error) {
	p := h.popAligned(words, align)
	reused := !p.IsNil()
	if !reused {
		var ok bool
		if p, ok = h.bump(words, align); !ok {
			return 0, ErrOutOfMemory
		}
	}
	h.os.allocs.Add(1)
	if reused {
		h.os.reused.Add(1)
	}
	live := h.liveWords.Add(words)
	for {
		max := h.maxLiveWords.Load()
		if live <= max || h.maxLiveWords.CompareAndSwap(max, live) {
			return p, nil
		}
	}
}

// popAligned makes one reuse attempt from the bin for the size: the bin
// may hold a region with the right alignment (e.g. a previously
// released hyperblock). A misaligned pop is pushed back for unaligned
// callers rather than retried.
func (h *Heap) popAligned(words, align uint64) Ptr {
	p := h.popRegion(words)
	if p.IsNil() || align <= 1 || uint64(p)&(align-1) == 0 {
		return p
	}
	h.pushRegion(p, words)
	return 0
}

// popRegion pops a region from the freelist bin for the exact size, or
// returns nil.
func (h *Heap) popRegion(words uint64) Ptr {
	p, fails := h.os.binFor(words).Pop(regionLinks{h})
	h.retry(telemetry.SiteRegionPop, p, fails)
	if p != 0 {
		h.os.countFor(words).Add(^uint64(0)) // census counter: see regions
	}
	return Ptr(p)
}

// pushRegion pushes a region onto the freelist bin for its size.
func (h *Heap) pushRegion(p Ptr, words uint64) {
	// Incremented before the push so the paired pop's decrement (which
	// can only follow a successful push) never drives the counter
	// negative; see regions.
	h.os.countFor(words).Add(1)
	h.retry(telemetry.SiteRegionPush, uint64(p), h.os.binFor(words).Push(regionLinks{h}, uint64(p), uint64(p)))
}

// retry records n failed CASes at site, if telemetry is attached.
func (h *Heap) retry(site telemetry.Site, key uint64, n int) {
	if st := h.tele.Load(); st != nil {
		for ; n > 0; n-- {
			st.Retry(site, key)
		}
	}
}

// bump reserves words of never-used address space at the given
// alignment (1 for none). It keeps the two rules materialize relies on:
// a region larger than a granule starts on a granule boundary (being a
// power of two pages, it ends on one too), and a smaller one that would
// straddle a granule boundary starts on the next one. A region that
// would straddle a segment boundary starts on the next segment, whose
// base satisfies every legal alignment. Returns false when the address
// space is exhausted.
func (h *Heap) bump(words, align uint64) (Ptr, bool) {
	r := h.os
	for {
		cur := r.next.Load()
		start := (cur + align - 1) &^ (align - 1)
		if words > granWords || (start+words-1)>>granLog != start>>granLog {
			start = (start + granWords - 1) &^ (granWords - 1) // satisfies align: both are powers of two
		}
		if seg := start >> h.segLog; (start+words-1)>>h.segLog != seg {
			start = (seg + 1) << h.segLog
		}
		end := start + words
		if end > h.maxWords {
			return 0, false
		}
		if r.next.CompareAndSwap(cur, end) {
			if start != cur {
				r.skippedWords.Add(start - cur)
			}
			h.materialize(start, words)
			return Ptr(start), true
		}
		h.retry(telemetry.SiteRegionBump, cur, 1)
	}
}

// Stats returns a snapshot of the heap counters.
func (h *Heap) Stats() Stats {
	r := h.os
	return Stats{
		ReservedWords:     r.next.Load(),
		MaterializedWords: r.materializedWords.Load(),
		LiveWords:         h.liveWords.Load(),
		MaxLiveWords:      h.maxLiveWords.Load(),
		RegionAllocs:      r.allocs.Load(),
		RegionFrees:       r.frees.Load(),
		ReusedRegions:     r.reused.Load(),
		SkippedWords:      r.skippedWords.Load(),
	}
}

// BinStat describes one non-empty free-region bin.
type BinStat struct {
	RegionWords uint64 // exact size of every region in the bin
	Regions     int    // regions currently on the bin's freelist
}

// RegionBins walks the free-region bins and reports their occupancy
// (non-empty bins only, ordered by size), or an error naming a bin whose
// links form a cycle. The walk follows freelist links without
// synchronizing against concurrent pushes and pops, so it must run at a
// quiescent point; it serves inspection, not the allocation path.
func (h *Heap) RegionBins() ([]BinStat, error) {
	var err error
	bins := h.os.binStats(func(bin *lfstack.Stack, _ *atomic.Uint64) uint64 {
		n := uint64(0)
		if e := bin.Walk(regionLinks{h}, h.maxWords/PageWords, func(uint64) { n++ }); e != nil && err == nil {
			err = fmt.Errorf("mem: region bin: %w", e)
		}
		return n
	})
	return bins, err
}

// BinCensus reports the same occupancy as RegionBins from the census
// counters instead. It is safe to call during churn: each bin's count
// is one atomic load, transiently high by at most the in-flight pushes
// (see regions). Counts are exact at quiescence.
func (h *Heap) BinCensus() []BinStat {
	return h.os.binStats(func(_ *lfstack.Stack, census *atomic.Uint64) uint64 { return census.Load() })
}

// binStats lists the bins for which count, given the bin's head and
// its census counter, is not zero, smallest size first.
func (r *regions) binStats(count func(bin *lfstack.Stack, census *atomic.Uint64) uint64) []BinStat {
	var out []BinStat
	for b := range r.bins {
		if n := count(&r.bins[b], &r.binRegions[b]); n > 0 {
			out = append(out, BinStat{RegionWords: uint64(b+1) * PageWords, Regions: int(n)})
		}
	}
	for k := range r.log2Bins {
		if n := count(&r.log2Bins[k], &r.log2BinRegions[k]); n > 0 {
			out = append(out, BinStat{RegionWords: PageWords << k, Regions: int(n)})
		}
	}
	return out
}

// ResetMaxLive resets the live-words high-water mark to the current
// live count (used between benchmark phases).
func (h *Heap) ResetMaxLive() {
	h.maxLiveWords.Store(h.liveWords.Load())
}
