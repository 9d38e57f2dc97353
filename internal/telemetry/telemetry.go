// Package telemetry is the lock-free observability layer for the
// allocators in this repository: contention counters at every CAS
// retry site, log2-bucketed latency histograms for malloc/free keyed
// by size class, and a fixed-size flight recorder of recent events.
//
// The design discipline is the allocator's own (the paper's §2:
// "lock-free"): recording never takes a lock, never blocks a recording
// thread on another, and never blocks snapshot readers on writers.
//
//   - Retry counters and histograms are sharded per thread
//     (ThreadShard, cache-padded) so the hot path touches only memory
//     owned by its thread; shards are merged on Snapshot with plain
//     atomic loads.
//
//   - Contexts without a thread handle (the mem region free stacks,
//     the partial-list node pools, the descriptor freelist) record
//     into a small set of cache-padded stripes (Stripes), indexed by a
//     hash of the contended operand so unrelated CAS sites do not
//     share a counter cache line.
//
//   - The flight recorder (Ring) is a power-of-two ring of seqlock
//     slots claimed with one atomic fetch-add — the same atomic bump
//     discipline as the allocator's own free stacks. Writers are
//     wait-free; readers validate each slot's sequence word and drop
//     torn slots instead of waiting.
//
// A disabled telemetry layer costs the allocator exactly one nil check
// per instrumented branch (and the retry-site checks sit on CAS
// *failure* paths, which the contention-free fast path never takes).
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Site identifies one instrumented CAS retry site. A site's counter is
// incremented once per failed CAS (equivalently: per extra loop
// iteration), so a site's count is exactly the number of wasted atomic
// operations caused by contention at that word — the cost model behind
// the paper's Figures 6–9.
type Site int

const (
	// SiteActiveReserve: the Active-word credit-decrement CAS in
	// MallocFromActive (Figure 4 lines 1-6).
	SiteActiveReserve Site = iota
	// SiteActivePop: the anchor-pop CAS in MallocFromActive (lines
	// 7-18), both the common credits-remain path and the last-credit
	// path.
	SiteActivePop
	// SiteActiveInstall: a failed CAS installing a superblock as a
	// heap's Active word (UpdateActive line 3, MallocFromNewSB line
	// 13). These do not retry in place — the caller falls back — but
	// each failure is a lost install race worth counting.
	SiteActiveInstall
	// SiteUpdateActive: the anchor loop returning credits when
	// UpdateActive loses the install race (lines 4-8).
	SiteUpdateActive
	// SitePartialReserve: the anchor reserve CAS in MallocFromPartial
	// (lines 4-10).
	SitePartialReserve
	// SitePartialPop: the anchor pop CAS in MallocFromPartial (lines
	// 11-15).
	SitePartialPop
	// SitePartialSlot: CAS failures on a processor heap's
	// most-recently-used Partial slot (HeapGetPartial/HeapPutPartial).
	SitePartialSlot
	// SiteFreeFast: the fast-path anchor CAS in Free.
	SiteFreeFast
	// SiteFreeSlow: the full-anchor CAS loop in Free (Figure 6).
	SiteFreeSlow
	// SitePartialListPut: retries enqueueing on a size class's partial
	// list (FIFO tail/next CAS or LIFO head CAS).
	SitePartialListPut
	// SitePartialListGet: retries dequeueing from a size class's
	// partial list.
	SitePartialListGet
	// SiteDescAlloc: retries popping the DescAvail descriptor
	// freelist (Figure 7).
	SiteDescAlloc
	// SiteDescRetire: retries pushing onto DescAvail.
	SiteDescRetire
	// SiteRegionPop: retries popping a mem region free-stack bin.
	SiteRegionPop
	// SiteRegionPush: retries pushing onto a mem region free-stack
	// bin.
	SiteRegionPush
	// SiteMagRefillReserve: retries of the magazine refill's batched
	// credit-reserve CAS on a heap's Active word.
	SiteMagRefillReserve
	// SiteMagRefillPop: retries of the back-to-back anchor pops during
	// a magazine refill.
	SiteMagRefillPop
	// SiteMagFlush: retries of the batched anchor splice returning a
	// magazine group to its superblock.
	SiteMagFlush
	// SiteRegionBump: retries of the region bump-pointer CAS.
	SiteRegionBump
	// SitePoolMigrate: pool allocations whose stripe was dry and
	// pulled a whole freelist chain from a sibling stripe (see
	// internal/pool). Unlike the other sites this counts events, not
	// CAS retries; it shares the retry plumbing so migrations appear
	// in the same reports.
	SitePoolMigrate
	// SiteBuddyReserve: failed CAS(FREE->OCC) claiming a buddy-tree
	// node (internal/buddy try_alloc), counted once per node whose
	// claim another thread won.
	SiteBuddyReserve
	// SiteBuddyFragment: retries of the bottom-up status CAS marking
	// a claimed buddy node's ancestors occupied.
	SiteBuddyFragment
	// SiteBuddyMark: retries of the free path's coalescing-bit CAS
	// (phase 1 of the non-blocking buddy free).
	SiteBuddyMark
	// SiteBuddyUnmark: retries of the free path's bottom-up
	// coalescing CAS (phase 3), the lock-free merge itself.
	SiteBuddyUnmark
	// SiteBuddyGrow: buddy-tree growth races lost — a fully built
	// tree discarded because another thread published its own first.
	// Counts events, not CAS retries, like SitePoolMigrate.
	SiteBuddyGrow
	// NumSites is the number of instrumented sites.
	NumSites
)

var siteNames = [NumSites]string{
	"active-reserve",
	"active-pop",
	"active-install",
	"update-active-credits",
	"partial-reserve",
	"partial-pop",
	"partial-slot",
	"free-fast",
	"free-slow",
	"partial-list-put",
	"partial-list-get",
	"desc-alloc",
	"desc-retire",
	"region-pop",
	"region-push",
	"mag-refill-reserve",
	"mag-refill-pop",
	"mag-flush",
	"region-bump",
	"pool-migrate",
	"buddy-reserve",
	"buddy-fragment",
	"buddy-mark",
	"buddy-unmark",
	"buddy-grow",
}

func (s Site) String() string {
	if s >= 0 && s < NumSites {
		return siteNames[s]
	}
	return "invalid-site"
}

// Config parameterizes a Recorder.
type Config struct {
	// Classes is the number of small size classes; histograms get one
	// row per class per op kind, plus one row for large blocks.
	Classes int
	// RingSize is the flight-recorder capacity in events, rounded up
	// to a power of two. 0 selects 4096.
	RingSize int
	// RingSample records every Nth malloc and free per thread into the
	// flight recorder (structural events — new superblocks, race
	// losses, superblock retirements, hook firings — are always
	// recorded). 0 selects 64; 1 records every operation. Sampling
	// keeps the ring's shared bump counter off the per-op hot path.
	RingSample int
	// SampleRate enables the allocation sampler behind the heap
	// census's fragmentation, call-site, and live-age reporting: every
	// Nth malloc per thread is sampled (1 samples every allocation).
	// 0 disables the sampler entirely, reducing its malloc-path cost
	// to one plain field check.
	SampleRate int
	// SampleSlots is the sampler's live-sample table capacity, rounded
	// up to a power of two. 0 selects 2048. Ignored when SampleRate is
	// 0.
	SampleSlots int
}

func (c Config) withDefaults() Config {
	if c.Classes < 0 {
		c.Classes = 0
	}
	if c.RingSize <= 0 {
		c.RingSize = 4096
	}
	if c.RingSample <= 0 {
		c.RingSample = 64
	}
	if c.SampleRate < 0 {
		c.SampleRate = 0
	}
	return c
}

// Recorder is the telemetry hub for one allocator: it owns the flight
// recorder, the shared stripes, and the registry of per-thread shards.
// All methods are safe for concurrent use; NewShard uses a mutex
// (registration happens once per thread, off the malloc/free paths),
// everything else is lock-free.
type Recorder struct {
	cfg     Config
	ring    Ring
	stripes Stripes

	// shards is a copy-on-write slice so Snapshot never takes the
	// registration mutex: readers load the pointer, writers swap in an
	// appended copy under mu.
	shards atomic.Pointer[[]*ThreadShard]
	mu     sync.Mutex

	// smp is the optional allocation sampler (nil unless
	// Config.SampleRate > 0), shared by all shards.
	smp *Sampler

	started time.Time
}

// New creates a Recorder.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	r := &Recorder{cfg: cfg, started: time.Now()}
	r.ring.init(cfg.RingSize)
	if cfg.SampleRate > 0 {
		r.smp = newSampler(cfg.SampleRate, cfg.SampleSlots)
	}
	empty := []*ThreadShard{}
	r.shards.Store(&empty)
	return r
}

// Config returns the recorder's (defaulted) configuration.
func (r *Recorder) Config() Config { return r.cfg }

// Stripes returns the shared striped counters for contexts without a
// thread handle.
func (r *Recorder) Stripes() *Stripes { return &r.stripes }

// Ring returns the flight recorder.
func (r *Recorder) Ring() *Ring { return &r.ring }

// Sampler returns the allocation sampler, or nil when Config.SampleRate
// is 0.
func (r *Recorder) Sampler() *Sampler { return r.smp }

// NewShard registers and returns a per-thread shard. id labels the
// shard's flight-recorder events (the allocator passes its thread id).
func (r *Recorder) NewShard(id uint64) *ThreadShard {
	s := &ThreadShard{
		id:      id,
		classes: r.cfg.Classes,
		hist:    make([]Histogram, 2*(r.cfg.Classes+1)),
		ring:    &r.ring,
		sample:  uint64(r.cfg.RingSample),
		smp:     r.smp,
	}
	if r.smp != nil {
		s.smpEvery = uint64(r.cfg.SampleRate)
	}
	r.mu.Lock()
	old := *r.shards.Load()
	next := make([]*ThreadShard, len(old)+1)
	copy(next, old)
	next[len(old)] = s
	r.shards.Store(&next)
	r.mu.Unlock()
	return s
}

// pad is one cache line of padding.
type pad [64]byte

// ThreadShard is one thread's private telemetry state: retry counters
// and latency histograms. The owning thread is the only writer; all
// fields read by Snapshot are atomic, so live merging is
// race-detector-clean. The struct is padded so two shards never share
// a cache line.
type ThreadShard struct {
	_ pad

	retries [NumSites]atomic.Uint64

	// Magazine-layer counters: hits/misses on the thread's private
	// block caches and flush batches returned to the shared
	// structures. All zero when the layer is disabled.
	magHits    atomic.Uint64
	magMisses  atomic.Uint64
	magFlushes atomic.Uint64
	magFlushed atomic.Uint64 // blocks returned across all flushes

	// hist rows: [op][class] flattened as op*(classes+1)+class, with
	// op 0 = malloc, 1 = free, and class `classes` = large blocks.
	hist    []Histogram
	classes int

	ring   *Ring
	id     uint64
	sample uint64

	// opRetries accumulates this thread's retries within the current
	// operation (for the flight-recorder event); opSeq drives ring
	// sampling. Plain fields: single-writer, never read by Snapshot.
	opRetries uint64
	opSeq     uint64

	// smp is the recorder's allocation sampler (nil when disabled);
	// smpEvery/smpSeq drive the per-thread sampling countdown. Plain
	// fields: single-writer.
	smp      *Sampler
	smpEvery uint64
	smpSeq   uint64

	_ pad
}

// ID returns the thread id the shard was registered with.
func (s *ThreadShard) ID() uint64 { return s.id }

// BeginOp marks the start of a Malloc or Free, resetting the per-op
// retry accumulator.
func (s *ThreadShard) BeginOp() { s.opRetries = 0 }

// Retry records one failed CAS at site.
func (s *ThreadShard) Retry(site Site) {
	s.retries[site].Add(1)
	s.opRetries++
}

// MagHit records a malloc satisfied from a thread-local magazine.
func (s *ThreadShard) MagHit() { s.magHits.Add(1) }

// MagMiss records a malloc that found its magazine empty.
func (s *ThreadShard) MagMiss() { s.magMisses.Add(1) }

// MagFlush records one flush batch of n blocks spliced back into a
// superblock's free list.
func (s *ThreadShard) MagFlush(n uint64) {
	s.magFlushes.Add(1)
	s.magFlushed.Add(n)
}

// histRow returns the histogram for (op, class), clamping class into
// range (class < 0 or >= classes selects the large-block row).
func (s *ThreadShard) histRow(op, class int) *Histogram {
	if class < 0 || class > s.classes {
		class = s.classes
	}
	return &s.hist[op*(s.classes+1)+class]
}

// EndMalloc records a completed Malloc: latency into the class's
// histogram and (sampled) an event into the flight recorder. class is
// the size-class index, or -1 for a large block.
func (s *ThreadShard) EndMalloc(class int, d time.Duration, ptr uint64) {
	s.endOp(EvMalloc, 0, class, d, ptr)
}

// EndFree records a completed Free.
func (s *ThreadShard) EndFree(class int, d time.Duration, ptr uint64) {
	s.endOp(EvFree, 1, class, d, ptr)
}

func (s *ThreadShard) endOp(kind EventKind, op, class int, d time.Duration, ptr uint64) {
	s.histRow(op, class).Record(d)
	s.opSeq++
	if s.opRetries > 0 || s.opSeq%s.sample == 0 {
		s.ring.Record(Event{
			Kind:    kind,
			Class:   class,
			Hook:    -1,
			Thread:  s.id,
			Retries: s.opRetries,
			Ptr:     ptr,
			Nanos:   uint64(d.Nanoseconds()),
		})
	}
}

// Note records a structural event (new superblock, race loss,
// superblock retirement) into the flight recorder, unsampled.
func (s *ThreadShard) Note(kind EventKind, class int, ptr uint64) {
	s.ring.Record(Event{
		Kind:    kind,
		Class:   class,
		Hook:    -1,
		Thread:  s.id,
		Retries: s.opRetries,
		Ptr:     ptr,
	})
}

// NoteHook records a hook firing (fault-injection instrumentation)
// into the flight recorder, unsampled.
func (s *ThreadShard) NoteHook(hook int) {
	s.ring.Record(Event{
		Kind:    EvHook,
		Class:   -1,
		Hook:    hook,
		Thread:  s.id,
		Retries: s.opRetries,
	})
}

// stripeCount is the number of shared-counter stripes. Retries through
// Stripes happen only on CAS failures of the coldest structures
// (region stacks, descriptor freelist, partial-list pools), so a small
// stripe set suffices to keep the counters off any single hot line.
const stripeCount = 16

type stripe struct {
	counts [NumSites]atomic.Uint64
	_      pad
}

// Stripes is a set of cache-padded shared counters for CAS sites that
// run without a thread handle. The zero value is ready to use.
type Stripes struct {
	stripes [stripeCount]stripe
}

// Retry records one failed CAS at site. key is any value correlated
// with the contended word (typically the region or node address); it
// spreads unrelated sites across stripes.
func (s *Stripes) Retry(site Site, key uint64) {
	s.stripes[mix(key)&(stripeCount-1)].counts[site].Add(1)
}

// mix is a splitmix64-style finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}
