// Package mem provides the simulated 64-bit address space and the
// operating-system memory layer (the stand-in for mmap/munmap) that the
// allocators in this repository are built on.
//
// The paper's allocator runs over a real OS virtual address space; a Go
// reproduction cannot take over the process heap, so this package
// simulates one:
//
//   - The address space is word-addressed: a Ptr indexes one anonymous
//     mapping of TotalWords words whose pages the OS backs on first
//     touch, so a heap costs what it touches. Ptr 0 is nil (the first
//     page is never handed out, nor accessible).
//
//   - Allocator-metadata accesses to heap words (block prefixes,
//     free-list links) go through Load, Store and CAS, as the C
//     implementation uses ordinary and atomic accesses on the process
//     heap: Load is an atomic read (a plain MOV on amd64), Store the
//     paper's plain store, which the caller's next CAS publishes, and
//     CAS a locked instruction. Under -race Store is atomic too (see
//     atomicx.PlainStore). Payload accesses may use Get and Set. The
//     mapping is not Go memory, so the race detector does not see these
//     accesses.
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
// The segment (Config.SegmentWordsLog2) is the largest region: no region
// straddles a segment boundary.
//
// Cache behaviour is real: words of one superblock are contiguous in the
// mapping, so blocks carved from the same superblock share cache lines,
// which is what makes the paper's false-sharing benchmarks meaningful in
// this simulation.
package mem

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
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

	// The address space holds at least exactBins pages, so every exact
	// bin's size can be served, and at most 2^31 words, which bounds the
	// descriptor indexes the allocators derive from it.
	minTotalWordsLog2 = 15
	maxTotalWordsLog2 = 31
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
	// region. It costs nothing until used: the OS backs pages on first
	// touch (see NewHeap). 0 selects the default (2^21 words, 16 MiB).
	SegmentWordsLog2 uint
	// TotalWordsLog2 is the log2 of the total addressable words, the
	// size of the reservation. 0 selects the default (2^31 words,
	// 16 GiB). It is raised to SegmentWordsLog2 and to 15 and clamped
	// to 31, so 2^31 words is also the largest heap; a segment is
	// clamped to it.
	TotalWordsLog2 uint
}

// Heap is a simulated word-addressed address space with an OS-like
// region allocator. All methods are safe for concurrent use; the region
// allocator is lock-free.
type Heap struct {
	// base is the address of word 0 of the mapping and top the bump
	// pointer counted from the first page past nil (the next unreserved
	// word is PageWords+top): everything word reads. They share the
	// struct's first cache line with no counter: Heap fills the 128-byte
	// size class exactly (asserted below), which the Go allocator starts
	// on a line boundary. Only a bump into fresh address space writes the
	// line; a region reused from a bin does not.
	base unsafe.Pointer
	top  uint64 // CAS by bump, atomicx.PlainLoad by Mapped

	segLog   uint
	segWords uint64
	maxWords uint64

	// os is the region allocator: free-region bins and their counters,
	// behind a pointer so Heap stays two lines.
	os *regions

	// res owns the mapping; its finalizer unmaps it. Not the Heap
	// itself: a region hook may hold the Heap in a cycle, and a finalizer
	// on an object in a cycle never runs.
	res *reservation

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
	regionHook atomic.Pointer[func(p Ptr, words uint64)]

	_ [40]byte // to the 128-byte size class
}

const (
	_ = 128 - unsafe.Sizeof(Heap{}) // either overflowing is a negative constant: no compile
	_ = unsafe.Sizeof(Heap{}) - 128
	_ = 64 - unsafe.Offsetof(Heap{}.tele) - 8 // the first line ends with tele
)

// regions is the region allocator's state.
type regions struct {
	// live is the memdebug build's ledger of the regions handed out
	// (memdebug_on.go); empty otherwise. First, so that its zero size
	// adds no padding.
	live liveRegions

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

	allocs       atomic.Uint64 // regions handed out
	frees        atomic.Uint64 // regions returned
	reused       atomic.Uint64 // allocations served from a bin
	skippedWords atomic.Uint64 // words the bump skipped to an alignment or segment boundary
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
	ReservedWords uint64 // address space consumed by the bump pointer
	LiveWords     uint64 // words currently allocated to regions
	MaxLiveWords  uint64 // high-water mark of LiveWords
	RegionAllocs  uint64
	RegionFrees   uint64
	ReusedRegions uint64 // allocations served from a free-region bin
	// Steals is always 0: one region allocator has no sibling to steal
	// from. The field stays while the benchmark's mem.steals_per_kop
	// reads it.
	Steals       uint64
	SkippedWords uint64 // words the bump skipped to an alignment or segment boundary
}

// NewHeap creates a heap with the given configuration: one mapping of
// TotalWords words. It panics with an error wrapping ErrOutOfMemory if
// the OS refuses the reservation.
func NewHeap(cfg Config) *Heap {
	segLog := cfg.SegmentWordsLog2
	if segLog == 0 {
		segLog = defaultSegmentWordsLog2
	}
	totalLog := cfg.TotalWordsLog2
	if totalLog == 0 {
		totalLog = defaultTotalWordsLog2
	}
	totalLog = min(max(totalLog, segLog, minTotalWordsLog2), maxTotalWordsLog2)
	segLog = min(segLog, totalLog)
	bytes := uint64(WordBytes) << totalLog
	b, err := mmap(bytes)
	if err != nil {
		panic(fmt.Errorf("mem: the OS refused a reservation of %d bytes: %w: %w", bytes, err, ErrOutOfMemory))
	}
	// Huge pages beyond the first segment, if segments are default-sized
	// or larger: small heaps, and the scattered regions of small-segment
	// ones, would leave most of a 2 MiB page untouched.
	if seg := uint64(WordBytes) << segLog; hugePages != nil && segLog >= defaultSegmentWordsLog2 && seg < bytes {
		hugePages(b[seg:])
	}
	liveReservations.Add(1)
	res := &reservation{b}
	runtime.SetFinalizer(res, func(r *reservation) {
		munmap(r.mem)
		liveReservations.Add(-1)
	})
	return &Heap{
		base:     unsafe.Pointer(unsafe.SliceData(b)),
		segLog:   segLog,
		segWords: 1 << segLog,
		maxWords: 1 << totalLog,
		os:       new(regions),
		res:      res,
	}
}

// reservation owns a heap's mapping, and liveReservations counts those
// not yet unmapped.
type reservation struct{ mem []byte }

var liveReservations atomic.Int64

// SegmentWords returns the number of words per segment. Regions never
// straddle a segment boundary.
func (h *Heap) SegmentWords() uint64 { return h.segWords }

// MaxRegionWords returns the largest region the OS layer can serve.
func (h *Heap) MaxRegionWords() uint64 { return h.segWords }

// TotalWords returns the size of the address space in words.
func (h *Heap) TotalWords() uint64 { return h.maxWords }

// unmappedError is the panic value of an access to an address outside
// the reserved range. A typed value rather than a formatted string so
// that raising it costs the accessors no call and they stay within the
// inliner's budget; the message is built only if the panic is printed.
type unmappedError Ptr

func (e unmappedError) Error() string {
	return fmt.Sprintf("mem: access to unmapped address %v", Ptr(e))
}

// word translates a mapped p to base + 8·p, inside the mapping since
// PageWords+top ≤ TotalWords, and panics with unmappedError for any other
// p. The accessors keep h, and so the mapping, alive across the access
// (runtime.KeepAlive) and omit the stack check (go:nosplit): their frame
// is the panic path's, whose runtime calls check the stack themselves.
func (h *Heap) word(p Ptr) *uint64 {
	if !h.Mapped(p) {
		panic(unmappedError(p))
	}
	return (*uint64)(unsafe.Add(h.base, uint64(p)*WordBytes))
}

// Load atomically reads the word at p.
//
//go:nosplit
func (h *Heap) Load(p Ptr) uint64 { v := atomic.LoadUint64(h.word(p)); runtime.KeepAlive(h); return v }

// Store writes the word at p with the paper's plain store (Figure 6
// line 8): no barrier of its own. Whoever hands the word to another
// thread publishes it, as every caller does with a CAS (or a lock
// release) after its stores; on amd64 that saves a locked XCHG per
// word. Under -race it is atomic.StoreUint64 (atomicx.PlainStore).
//
//go:nosplit
func (h *Heap) Store(p Ptr, v uint64) { atomicx.PlainStore(h.word(p), v); runtime.KeepAlive(h) }

// CAS performs a compare-and-swap on the word at p.
//
//go:nosplit
func (h *Heap) CAS(p Ptr, old, new uint64) bool {
	ok := atomic.CompareAndSwapUint64(h.word(p), old, new)
	runtime.KeepAlive(h)
	return ok
}

// Get reads the word at p without atomicity. Intended for payload
// access by application code that owns the block.
//
//go:nosplit
func (h *Heap) Get(p Ptr) uint64 { v := *h.word(p); runtime.KeepAlive(h); return v }

// Set writes the word at p without atomicity. Intended for payload
// access by application code that owns the block. It compiles to the
// same write as Store and differs from it only under -race, where Store
// stays atomic.
//
//go:nosplit
func (h *Heap) Set(p Ptr, v uint64) { *h.word(p) = v; runtime.KeepAlive(h) }

// Words returns a slice aliasing the n words starting at p, which must
// lie within one segment and below the bump pointer, like any word an
// accessor reaches. The slice points into the heap's mapping, not Go
// memory: it is valid only while the heap is reachable.
func (h *Heap) Words(p Ptr, n uint64) []uint64 {
	w := h.word(p)
	if n > h.segWords-uint64(p)&(h.segWords-1) {
		panic(fmt.Sprintf("mem: Words(%v, %d) straddles a segment boundary", p, n))
	}
	// Within the segment p+n cannot wrap, so its last word is p+n-1.
	if last := p.Add(n - 1); n > 1 && !h.Mapped(last) {
		panic(unmappedError(last))
	}
	return unsafe.Slice(w, n)
}

// Mapped reports whether p lies in the reserved range [PageWords,
// PageWords+top), and is thus safe to access: one unsigned compare, which
// the nil page and every address the bump pointer has not reached, up to
// ^0, fail. top only grows, so a plain load of it serves: any Ptr a
// thread holds was reserved before whatever handed it over.
func (h *Heap) Mapped(p Ptr) bool { return uint64(p)-PageWords < atomicx.PlainLoad(&h.top) }

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
// the OS layer's bins. It corresponds to munmap. Lock-free. Under the
// memdebug build tag it panics on a base that is not live or a size
// other than the one allocated.
func (h *Heap) FreeRegion(p Ptr, n uint64) {
	if memDebug && n != RegionWords(n) {
		panic(fmt.Sprintf("mem: FreeRegion(%v, %d): size is not region-rounded (RegionWords gives %d)",
			p, n, RegionWords(n)))
	}
	words := RegionWords(n)
	h.os.live.remove(p, words)
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
	h.os.live.add(p, words)
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
// alignment (1 for none); the first page is never reserved, so Ptr 0 is
// never a region address. A region that would straddle a segment
// boundary starts on the next segment, whose base satisfies every legal
// alignment. Returns false when the address space is exhausted.
func (h *Heap) bump(words, align uint64) (Ptr, bool) {
	for {
		cur := PageWords + atomic.LoadUint64(&h.top)
		start := (cur + align - 1) &^ (align - 1)
		if seg := start >> h.segLog; (start+words-1)>>h.segLog != seg {
			start = (seg + 1) << h.segLog
		}
		end := start + words
		if end > h.maxWords {
			return 0, false
		}
		if atomic.CompareAndSwapUint64(&h.top, cur-PageWords, end-PageWords) {
			if start != cur {
				h.os.skippedWords.Add(start - cur)
			}
			return Ptr(start), true
		}
		h.retry(telemetry.SiteRegionBump, cur, 1)
	}
}

// Stats returns a snapshot of the heap counters.
func (h *Heap) Stats() Stats {
	r := h.os
	return Stats{
		ReservedWords: PageWords + atomic.LoadUint64(&h.top),
		LiveWords:     h.liveWords.Load(),
		MaxLiveWords:  h.maxLiveWords.Load(),
		RegionAllocs:  r.allocs.Load(),
		RegionFrees:   r.frees.Load(),
		ReusedRegions: r.reused.Load(),
		SkippedWords:  r.skippedWords.Load(),
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
