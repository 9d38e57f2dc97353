// Package telemetry is the lock-free observability layer for the
// allocators in this repository: contention counters at every CAS
// retry site, exact operation counts and log2-bucketed latency
// histograms for malloc/free keyed by size class, and the allocation
// sampler.
//
// The design discipline is the allocator's own (the paper's §2:
// "lock-free"): recording never takes a lock, never blocks a recording
// thread on another, and never blocks snapshot readers on writers.
//
//   - Retry counters, operation counts and histograms are sharded per
//     thread (ThreadShard, cache-padded) so the hot path touches only
//     memory owned by its thread; shards are merged on Snapshot with
//     plain atomic loads.
//
//   - Every operation is counted, by the path that served it and its
//     size class (Counts), and every retry recorded; every Interval-th
//     malloc and every Interval-th free of a thread is timed. The owner
//     keeps the countdown to the next timed operation (Due), so an
//     untimed one reads no clock and touches no histogram.
//
//   - Contexts without a thread handle (the mem region free stacks,
//     the partial-list node pools, the descriptor freelist) record
//     into a small set of cache-padded stripes (Stripes), indexed by a
//     hash of the contended operand so unrelated CAS sites do not
//     share a counter cache line.
//
// The retry-site counters sit on CAS *failure* paths, which the
// contention-free fast path never takes.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicx"
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
	// SiteDescAlloc: retries popping DescAvail, the descriptor pool's
	// one freelist (Figure 7).
	SiteDescAlloc
	// SiteDescRetire: retries pushing a descriptor, or a chain of them,
	// onto DescAvail.
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
	// SitePoolMigrate: batch hand-offs of internal/pool's constant-time
	// backend, for a pool built with it and this site as MigrateSite.
	// No allocator records here: the descriptor pool is Figure 7's one
	// freelist, which never counts here. The site stays for the perf
	// ledger, whose pool.migrations_per_kop reads it and is therefore 0.
	// Unlike the other sites this counts events, not CAS retries.
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
	// SampleRate enables the allocation sampler behind the heap
	// census's fragmentation, call-site, and live-age reporting: every
	// Nth malloc per thread is sampled (1 samples every allocation).
	// 0 disables the sampler entirely. Its countdown is the timing
	// countdown's (ThreadShard.Due), so it adds no per-malloc branch.
	SampleRate int
}

const (
	// Interval: every Interval-th malloc and every Interval-th free of a
	// thread is timed. Timing one operation in Interval keeps two clock
	// reads and a histogram add off all others.
	// Interval is prime, so it cannot phase-lock with a caller timing
	// every 2^k-th of its own operations, as 256 did with a harness
	// timing every 64th malloc/free unit.
	Interval = 257
	// sampleSlots is the allocation sampler's live-sample table
	// capacity.
	sampleSlots = 2048
)

func (c Config) withDefaults() Config {
	if c.Classes < 0 {
		c.Classes = 0
	}
	if c.SampleRate < 0 {
		c.SampleRate = 0
	}
	return c
}

// Recorder is the telemetry hub for one allocator: it owns the shared
// stripes, the allocation sampler and the registry of per-thread shards.
// All methods are safe for concurrent use; NewShard uses a mutex
// (registration happens once per thread, off the malloc/free paths),
// everything else is lock-free.
type Recorder struct {
	cfg     Config
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
	if cfg.SampleRate > 0 {
		r.smp = newSampler(cfg.SampleRate, sampleSlots)
	}
	empty := []*ThreadShard{}
	r.shards.Store(&empty)
	return r
}

// Stripes returns the shared striped counters for contexts without a
// thread handle.
func (r *Recorder) Stripes() *Stripes { return &r.stripes }

// Sampler returns the allocation sampler, or nil when Config.SampleRate
// is 0.
func (r *Recorder) Sampler() *Sampler { return r.smp }

// NewShard registers and returns a per-thread shard.
func (r *Recorder) NewShard() *ThreadShard {
	s := &ThreadShard{
		classes:    r.cfg.Classes,
		counts:     NewCounts(r.cfg.Classes),
		smp:        r.smp,
		untilTimed: [2]uint64{Interval, Interval},
		armed:      [2]uint64{Interval, Interval},
	}
	if r.smp != nil {
		s.smpEvery = uint64(r.cfg.SampleRate)
		s.untilSample = s.smpEvery
		s.armed = [2]uint64{min(Interval, s.smpEvery), 1}
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

// Op is the kind of operation a shard times.
type Op int

const (
	OpMalloc Op = iota
	OpFree
)

// Path is the way an operation was served, the key of its count with
// its size class: the four sources of a small malloc (the paper's three
// and the thread's magazine), a large malloc, and a free.
type Path int

const (
	PathMagazine Path = iota // a hit in the thread's magazine
	PathActive               // the active superblock (MallocFromActive or a magazine refill)
	PathPartial              // a partial superblock (MallocFromPartial)
	PathNewSB                // a new superblock (MallocFromNewSB)
	PathLarge                // a large block, straight from the OS layer
	PathFree                 // any free, small or large
	NumPaths
)

// pathStride is the slots a class has in Counts: NumPaths rounded up
// to a power of two, so a count's index is a shift and an add, and one
// class's counts share a cache line.
const pathStride = 8

var _ [pathStride - NumPaths]struct{} // NumPaths <= pathStride

// Op is the kind of operation served by p.
func (p Path) Op() Op {
	if p == PathFree {
		return OpFree
	}
	return OpMalloc
}

// Counts is one thread's operation counts, the only count of an
// operation: every one, at (class+1)*pathStride + path, class -1 being
// large blocks. The owner counts with plain stores, readers load
// atomically. A core.Thread keeps one, its shard's if it has one.
type Counts []uint64

// NewCounts returns zero counts for classes small size classes.
func NewCounts(classes int) Counts { return make(Counts, (classes+1)*pathStride) }

// Count counts one operation served by path p for a block of class (-1
// for a large block). It must inline where the allocator serves one
// (ci/inline_guard.sh).
func (c Counts) Count(p Path, class int) {
	n := &c[(class+1)*pathStride+int(p)]
	atomicx.PlainStore(n, *n+1)
}

// Counted returns path p's counts summed over the small classes, and
// its large-block count. Safe from any goroutine.
func (c Counts) Counted(p Path) (small, large uint64) {
	for i := pathStride + int(p); i < len(c); i += pathStride {
		small += atomic.LoadUint64(&c[i])
	}
	return small, atomic.LoadUint64(&c[p])
}

// ThreadShard is one thread's private telemetry state: retry counters,
// operation counts and latency histograms. The owning thread is the
// only writer; all fields read by Snapshot are loaded atomically, so
// live merging is race-detector-clean. The struct is padded so two
// shards never share a cache line.
type ThreadShard struct {
	_ pad

	retries [NumSites]atomic.Uint64

	// counts holds every operation; hist holds the timed ones at
	// op*(classes+1) + class, class `classes` being large blocks,
	// allocated on the first.
	counts  Counts
	hist    atomic.Pointer[[]Histogram]
	classes int

	// The countdowns behind Due: operations of each kind left until the
	// next timed one, mallocs left until the next sample, as of the
	// countdown last handed to the owner (armed). Plain, single-writer.
	untilTimed  [2]uint64
	untilSample uint64
	armed       [2]uint64

	// smp is the recorder's allocation sampler (nil when disabled),
	// sampling every smpEvery-th malloc.
	smp      *Sampler
	smpEvery uint64

	_ pad
}

// Retry records one failed CAS at site. It is a no-op on a nil shard:
// the allocator's thread handle without a recorder.
func (s *ThreadShard) Retry(site Site) {
	if s == nil {
		return
	}
	s.retries[site].Add(1)
}

// Countdown is how many operations of kind op the owner runs before its
// first call to Due.
func (s *ThreadShard) Countdown(op Op) uint64 { return s.armed[op] }

// Due is the owner's call on the operation at which its countdown for
// op ran out. It reports whether the operation is timed (the
// Interval-th of its kind since the last) and, for a malloc, whether the
// allocation sampler takes it, and returns the countdown to the next
// call. With the sampler on, every free is due, so the owner matches it
// against the samples (SampleFree) before the block can be recycled.
func (s *ThreadShard) Due(op Op) (timed, sampled bool, next uint64) {
	n := s.armed[op]
	s.untilTimed[op] -= n
	if timed = s.untilTimed[op] == 0; timed {
		s.untilTimed[op] = Interval
	}
	next = s.untilTimed[op]
	if s.smp != nil {
		if op == OpFree {
			next = 1
		} else {
			s.untilSample -= n
			if sampled = s.untilSample == 0; sampled {
				s.untilSample = s.smpEvery
			}
			next = min(next, s.untilSample)
		}
	}
	s.armed[op] = next
	return timed, sampled, next
}

// column is class's index in a histogram row, class < 0 or >= classes
// selecting large blocks.
func (s *ThreadShard) column(class int) int {
	if uint(class) >= uint(s.classes) {
		return s.classes
	}
	return class
}

// Counts is the thread's operation counts.
func (s *ThreadShard) Counts() Counts { return s.counts }

// EndMalloc records a timed Malloc, counted already: its latency into
// the class's histogram. class is the size-class index, or -1 for a
// large block.
func (s *ThreadShard) EndMalloc(class int, d time.Duration) { s.endOp(OpMalloc, class, d) }

// EndFree records a timed Free.
func (s *ThreadShard) EndFree(class int, d time.Duration) { s.endOp(OpFree, class, d) }

func (s *ThreadShard) endOp(op Op, class int, d time.Duration) {
	h := s.hist.Load()
	if h == nil {
		rows := make([]Histogram, 2*(s.classes+1))
		h = &rows
		s.hist.Store(h)
	}
	(*h)[int(op)*(s.classes+1)+s.column(class)].Record(d)
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
