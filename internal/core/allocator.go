// Package core implements the completely lock-free dynamic memory
// allocator of Michael, "Scalable Lock-Free Dynamic Memory Allocation"
// (PLDI 2004), over the simulated address space of internal/mem.
//
// The structure follows the paper exactly (§3): the heap is composed of
// 16 KiB superblocks divided into equal-size blocks; superblocks are
// distributed among size classes; each size class has one processor
// heap per processor; a processor heap holds at most one ACTIVE
// superblock (through its Active word) and one most-recently-used
// PARTIAL superblock (through its Partial slot); each size class keeps
// a lock-free FIFO list of further partial superblocks. Large blocks
// bypass all of this and go straight to the OS layer.
//
// Every operation is lock-free: a thread delayed (or stopped forever —
// see internal/sched's kill-tolerance tests) at any point between
// atomic steps never prevents other threads from allocating and
// freeing.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/partial"
	"repro/internal/sizeclass"
	"repro/internal/telemetry"
)

// Config parameterizes the allocator. The zero value selects paper
// defaults.
type Config struct {
	// Processors is the number of processor heaps per size class
	// (the paper sizes this proportionally to the machine's
	// processors). 0 selects GOMAXPROCS at construction time via
	// DefaultProcessors.
	Processors int

	// MaxCredits caps blocks reserved through the Active word at once
	// (the paper's MAXCREDITS; 0 selects the default and maximum, 64).
	// Setting 1 disables batched credits: every malloc from the active
	// superblock takes the last credit — the credit-free ablation.
	MaxCredits int

	// PartialLIFO selects the Treiber-stack partial lists instead of
	// the preferred FIFO lists (§3.2.6 ablation).
	PartialLIFO bool

	// KeepNewSBOnRaceLoss selects the alternative policy in
	// MallocFromNewSB (Figure 4 line 16 comment): when losing the race
	// to install a new active superblock, take a block from the new
	// superblock and keep it as PARTIAL instead of deallocating it.
	// The paper prefers deallocation to limit external fragmentation.
	KeepNewSBOnRaceLoss bool

	// NoPartialSlot disables the per-heap most-recently-used Partial
	// slot, sending all partial superblocks straight to the size-class
	// list (§3.2.6 ablation).
	NoPartialSlot bool

	// MagazineSize enables the thread-local magazine layer: each
	// Thread keeps up to MagazineSize blocks per size class in a
	// private cache, refilled and flushed in batches so the shared
	// Active/anchor words are touched once per batch instead of once
	// per operation (see magazine.go and DESIGN.md). 0 (the default)
	// disables the layer, preserving the paper-faithful hot paths.
	// Memory blowup is bounded by MagazineSize × classes × threads
	// blocks held outside the shared structures; Thread.Unregister
	// returns them.
	MagazineSize int

	// Hyperblocks enables the §3.2.5 extension: superblocks are
	// allocated in 1 MiB hyperblock batches (reducing OS calls and
	// leaving unused superblocks unwritten) and fully-free hyperblocks
	// can be returned to the OS via Scavenge.
	Hyperblocks bool

	// HeapConfig configures the simulated address space the allocator
	// creates.
	HeapConfig mem.Config

	// Telemetry, when non-nil, attaches the lock-free observability
	// layer: CAS-retry counters at every contention site, per-class
	// malloc/free latency histograms, and the flight recorder. Create
	// one with NewRecorder so histogram rows match the size-class
	// table. When nil (the default), the only cost is a nil check per
	// instrumented branch.
	Telemetry *telemetry.Recorder
}

// Validate reports the first contradiction or out-of-range value in
// cfg. Zero values are always valid: they select the documented
// defaults.
func (cfg Config) Validate() error {
	switch {
	case cfg.Processors < 0:
		return fmt.Errorf("core: Processors %d is negative", cfg.Processors)
	case cfg.MaxCredits < 0 || cfg.MaxCredits > atomicx.MaxCredits:
		return fmt.Errorf("core: MaxCredits %d out of range [0, %d]", cfg.MaxCredits, atomicx.MaxCredits)
	case cfg.MagazineSize < 0:
		return fmt.Errorf("core: MagazineSize %d is negative", cfg.MagazineSize)
	}
	return nil
}

// NewRecorder creates a telemetry recorder sized for this allocator's
// size-class table (histogram rows per class plus one for large
// blocks). Pass the result in Config.Telemetry.
func NewRecorder(cfg telemetry.Config) *telemetry.Recorder {
	cfg.Classes = sizeclass.NumClasses()
	return telemetry.New(cfg)
}

// DefaultProcessors is used when Config.Processors is 0; it is a
// variable so tests can pin it.
var DefaultProcessors = defaultProcessors

// Allocator is the lock-free allocator. Obtain per-goroutine Thread
// handles with Thread; all methods on Allocator and Thread are safe for
// concurrent use and lock-free (Thread registration uses a mutex once
// per goroutine, outside the malloc/free paths).
type Allocator struct {
	// Hot fields first, ahead of the by-value cfg: malloc/free resolve
	// heap, classes, and descs on every operation, and keeping them at
	// fixed low offsets means growing Config (a debugging-layer field,
	// say) cannot push them across a cache-line boundary.
	heap  *mem.Heap
	hyper *mem.Hyper          // non-nil when cfg.Hyperblocks
	tele  *telemetry.Recorder // non-nil when cfg.Telemetry
	procs uint64

	maxCredits uint64

	classes []scState
	descs   *descPool

	cfg Config

	mu      sync.Mutex
	threads []*Thread

	nextThread atomic.Uint64

	// Pad the struct into the 256-byte allocation size class: 256-byte
	// objects are always 64-byte aligned, so the hot fields above land
	// on the same cache lines in every process, rather than at whatever
	// phase a 208- or 224-byte slot happens to start at. Growing the
	// struct within the padding budget cannot change the layout
	// (layout.go pins the total with compile-time assertions).
	_ [80]byte
}

// scState is the per-size-class state (paper's sizeclass structure).
type scState struct {
	class   sizeclass.Class
	heaps   []ProcHeap
	partial partial.List
}

// ProcHeap is a processor heap (paper Figure 3): exactly one 64-byte
// cache line (pinned by a compile-time assertion in layout.go), so
// distinct heaps' Active words never share one. It holds no Go pointer:
// the Go allocator places pointer-free objects of a line-multiple size
// on line boundaries, but prefixes an 8-byte header to pointerful ones
// above 512 bytes — which would put every heap of a class with more
// than eight processors across two lines.
type ProcHeap struct {
	// Active is the packed (descriptor index, credits) word; zero is
	// NULL.
	Active atomic.Uint64
	// Partial is the most-recently-used partial superblock's
	// descriptor index; zero is NULL.
	Partial atomic.Uint64

	id  uint64 // global heap id: class*procs + processor index
	cls uint32 // size-class index: id / procs

	_ [4]uint64 // pad to 64 bytes
}

// New constructs an allocator. The static structures for all size
// classes and processor heaps are allocated and initialized here (the
// paper does this lazily on the first malloc, also without locking).
//
// New normalises only zero values (each to its documented default); it
// never rewrites a set one, and panics on a Config that Validate
// rejects. Callers holding untrusted input call Validate first.
func New(cfg Config) *Allocator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Processors == 0 {
		cfg.Processors = DefaultProcessors()
	}
	if cfg.MaxCredits == 0 {
		cfg.MaxCredits = atomicx.MaxCredits
	}
	h := mem.NewHeap(cfg.HeapConfig)
	// The superblocks the address space has room for bound both the
	// descriptor table and the partial lists.
	maxSuperblocks := h.TotalWords() / sizeclass.SuperblockWords
	a := &Allocator{
		heap:       h,
		cfg:        cfg,
		procs:      uint64(cfg.Processors),
		maxCredits: uint64(cfg.MaxCredits),
		classes:    make([]scState, sizeclass.NumClasses()),
		descs:      newDescPool(maxSuperblocks, cfg.Processors),
	}
	if cfg.Hyperblocks {
		// 64 superblocks per hyperblock = 1 MiB batches (§3.2.5).
		a.hyper = mem.NewHyper(h, sizeclass.SuperblockWords, 64)
	}
	// Telemetry wiring: thread-context sites record through per-thread
	// shards (attached in Thread); the thread-less structures — region
	// free stacks, descriptor freelist, partial-list pools — share the
	// recorder's stripes.
	var stripes *telemetry.Stripes
	if cfg.Telemetry != nil {
		a.tele = cfg.Telemetry
		stripes = cfg.Telemetry.Stripes()
		a.descs.SetTelemetry(stripes)
		h.SetTelemetry(stripes)
	}
	// The partial lists link descriptors of live superblocks, each at
	// most once and in one class's list at a time, so all of them draw
	// their nodes from one pool, sized for the superblocks the address
	// space has room for rather than for the whole descriptor table, plus
	// a FIFO's dummy node per list. (EMPTY descriptors awaiting removal
	// can add to that; listRemoveEmptyDesc keeps them under half of each
	// list, and a Put beyond the bound is dropped and counted exactly as
	// at pool exhaustion.)
	nodes := partial.NewNodes(maxSuperblocks + uint64(len(a.classes)))
	for i := range a.classes {
		sc := &a.classes[i]
		sc.class = sizeclass.ByIndex(i)
		sc.heaps = make([]ProcHeap, cfg.Processors)
		if cfg.PartialLIFO {
			sc.partial = nodes.NewLIFO()
		} else {
			sc.partial = nodes.NewFIFO()
		}
		if stripes != nil {
			sc.partial.Instrument(stripes)
		}
		for p := range sc.heaps {
			sc.heaps[p].id = uint64(i)*a.procs + uint64(p)
			sc.heaps[p].cls = uint32(i)
		}
	}
	return a
}

// Name identifies the allocator in benchmark output.
func (a *Allocator) Name() string { return "lockfree" }

// Heap returns the simulated address space backing the allocator.
func (a *Allocator) Heap() *mem.Heap { return a.heap }

// Processors returns the number of processor heaps per size class.
func (a *Allocator) Processors() int { return int(a.procs) }

// procHeap maps a global heap id back to its ProcHeap.
func (a *Allocator) procHeap(id uint64) *ProcHeap {
	sc := &a.classes[id/a.procs]
	return &sc.heaps[id%a.procs]
}

// classOf returns the size-class state h belongs to.
func (a *Allocator) classOf(h *ProcHeap) *scState { return &a.classes[h.cls] }

// desc returns the descriptor with the given index.
func (a *Allocator) desc(idx uint64) *Descriptor { return a.descs.Get(idx) }

// stripe is the identity this thread passes the descriptor pool: a pure
// function of the thread id, like processor-heap selection. The
// descriptor pool is the freelist, whose one DescAvail head ignores it;
// pool's API takes it for its constant-time backend.
func (t *Thread) stripe() int { return int(t.id) }

// allocSB obtains a superblock region from the OS layer, or through the
// hyperblock layer when enabled (paper §3.2.5).
func (a *Allocator) allocSB(words uint64) (mem.Ptr, error) {
	if a.hyper != nil && words == a.hyper.SBWords() {
		return a.hyper.Alloc()
	}
	p, _, err := a.heap.AllocRegion(words)
	return p, err
}

// freeSB returns a superblock region to the OS layer (or the
// hyperblock layer); any thread may free any superblock.
func (a *Allocator) freeSB(p mem.Ptr, words uint64) {
	if a.hyper != nil && words == a.hyper.SBWords() {
		a.hyper.Free(p)
		return
	}
	a.heap.FreeRegion(p, words)
}

// Scavenge returns fully-free hyperblocks to the OS layer (no-op
// unless Hyperblocks is enabled). Quiescent callers only.
func (a *Allocator) Scavenge() int {
	if a.hyper == nil {
		return 0
	}
	return a.hyper.Scavenge()
}

// HyperStats reports hyperblock-layer counters (zero value when the
// layer is disabled).
func (a *Allocator) HyperStats() mem.HyperStats {
	if a.hyper == nil {
		return mem.HyperStats{}
	}
	return a.hyper.Stats()
}

// Telemetry returns the attached telemetry recorder (nil when the
// layer is disabled).
func (a *Allocator) Telemetry() *telemetry.Recorder { return a.tele }

// Thread registers a new thread (goroutine) with the allocator and
// returns its handle. The handle is not safe for concurrent use; each
// worker goroutine should hold its own, as each OS thread does in the
// paper's pthread environment.
func (a *Allocator) Thread() *Thread {
	t := &Thread{a: a, id: a.nextThread.Add(1) - 1, pubMask: pubBatch - 1}
	if a.tele != nil {
		t.rec = a.tele.NewShard(t.id)
	}
	if a.cfg.MagazineSize > 0 {
		t.magCap = a.cfg.MagazineSize
		t.mags = make([]magazine, len(a.classes))
	}
	// Resolve this thread's processor heap per size class once (the
	// paper's find_heap computes heap = f(sz, thread id) per malloc;
	// the function is pure, so caching it is behaviour-preserving).
	t.heaps = make([]*ProcHeap, len(a.classes))
	for i := range a.classes {
		sc := &a.classes[i]
		t.heaps[i] = &sc.heaps[t.id%a.procs]
	}
	a.mu.Lock()
	a.threads = append(a.threads, t)
	a.mu.Unlock()
	return t
}

// Thread is a per-goroutine allocation handle. Malloc/Free are the
// paper's malloc/free; the thread id selects processor heaps the way
// pthread ids do in the paper.
type Thread struct {
	// First cache line: what every Malloc and Free reads.
	a      *Allocator
	heaps  []*ProcHeap // per-size-class processor heap for this thread
	hookFn func(HookPoint)
	rec    *telemetry.ThreadShard // non-nil when telemetry is attached
	magCap int                    // high watermark of every magazine; 0 = layer disabled
	// pubMask batches the counters below: pubBatch-1, or 0 once
	// Unregister has run, so a straggling operation publishes itself.
	pubMask uint64

	// Second line: the magazines (Config.MagazineSize > 0; private block
	// caches per size class) and the counters that change on every
	// operation — plain words of the owning goroutine, where a LOCK XADD
	// each was a fifth of an uncontended pair, copied into ops by bump
	// every pubBatch-th event and by publish exactly.
	mags       []magazine
	frees      uint64
	fromActive uint64
	magHits    uint64
	_          [16]byte // keeps id at the third line

	id         uint64
	magScratch []mem.Ptr // reused flush-group buffer

	// ops is what Stats and OpStats load, from any goroutine: the three
	// batched counters as last published, and the ten whose paths
	// already cost a superblock, a flush or an OS call, added in place.
	ops opCounters

	// Pad into the 320-byte size class, a whole number of lines: every
	// Thread starts on a line boundary (layout.go pins size and phase).
	_ [48]byte
}

// pubBatch is how many events of one batched counter pass between two
// publications: a power of two, so the test is a mask. Publication
// depends on the handle's own event count and nothing else — not time,
// not other threads — so a one-thread run's Stats repeat exactly.
const pubBatch = 64

// bump counts one event on an owner-only counter and publishes it every
// pubBatch-th time. It must stay inlinable: outlined, the call costs
// what the atomic add it replaces did (ci/inline_guard.sh).
func (t *Thread) bump(n *uint64, pub *atomic.Uint64) {
	*n++
	if *n&t.pubMask == 0 {
		pub.Store(*n)
	}
}

// publish makes Stats exact for this handle. Owner-only like Malloc and
// Free, or any goroutine once the allocator is quiescent.
func (t *Thread) publish() {
	t.ops.frees.Store(t.frees)
	t.ops.fromActive.Store(t.fromActive)
	t.ops.magHits.Store(t.magHits)
}

// opCounters is the per-thread block Stats loads atomically. frees,
// fromActive and magHits are stored from the handle's plain words by
// bump and publish; the rest are atomic adds. The total malloc count is
// not stored: every successful small malloc takes exactly one of the
// four paths (magazine hit, active, partial, new superblock), so
// snapshot derives Mallocs = magHits+fromActive+fromPartial+fromNewSB.
type opCounters struct {
	frees             atomic.Uint64
	largeMallocs      atomic.Uint64
	largeFrees        atomic.Uint64
	fromActive        atomic.Uint64
	fromPartial       atomic.Uint64
	fromNewSB         atomic.Uint64
	newSBRaceLoss     atomic.Uint64
	emptySBFreed      atomic.Uint64
	emptyPartialSkips atomic.Uint64
	magHits           atomic.Uint64
	magMisses         atomic.Uint64
	magFlushes        atomic.Uint64
	magFlushedBlocks  atomic.Uint64
	partialListDrops  atomic.Uint64
}

// snapshot loads every counter. Loads are individually atomic but not
// mutually consistent (see Stats).
func (c *opCounters) snapshot() OpStats {
	fa, fp, fn := c.fromActive.Load(), c.fromPartial.Load(), c.fromNewSB.Load()
	mh := c.magHits.Load()
	return OpStats{
		Mallocs:               mh + fa + fp + fn,
		Frees:                 c.frees.Load(),
		LargeMallocs:          c.largeMallocs.Load(),
		LargeFrees:            c.largeFrees.Load(),
		FromActive:            fa,
		FromPartial:           fp,
		FromNewSB:             fn,
		NewSBRaceLoss:         c.newSBRaceLoss.Load(),
		EmptySBFreed:          c.emptySBFreed.Load(),
		EmptyPartialSkips:     c.emptyPartialSkips.Load(),
		MagazineHits:          mh,
		MagazineMisses:        c.magMisses.Load(),
		MagazineFlushes:       c.magFlushes.Load(),
		MagazineFlushedBlocks: c.magFlushedBlocks.Load(),
		PartialListDrops:      c.partialListDrops.Load(),
	}
}

// OpStats counts allocator operations observed by one thread or
// aggregated across threads.
type OpStats struct {
	Mallocs       uint64 // successful small mallocs (= MagazineHits+FromActive+FromPartial+FromNewSB)
	Frees         uint64 // small frees
	LargeMallocs  uint64
	LargeFrees    uint64
	FromActive    uint64 // mallocs satisfied by MallocFromActive
	FromPartial   uint64 // mallocs satisfied by MallocFromPartial
	FromNewSB     uint64 // mallocs satisfied by MallocFromNewSB
	NewSBRaceLoss uint64 // new superblocks discarded after losing the install race
	EmptySBFreed  uint64 // superblocks returned to the OS layer
	// EmptyPartialSkips counts EMPTY descriptors encountered (and
	// retired) while taking a superblock from a partial list
	// (MallocFromPartial line 6).
	EmptyPartialSkips uint64
	// MagazineHits counts small mallocs satisfied from a thread-local
	// magazine (zero shared atomics); MagazineMisses counts small
	// mallocs that found their magazine empty (each miss triggers one
	// batched refill attempt). Both are zero with the layer disabled.
	MagazineHits   uint64
	MagazineMisses uint64
	// MagazineFlushes counts superblock groups spliced back into
	// anchors by magazine flushes (one CAS each), and
	// MagazineFlushedBlocks the blocks those groups carried.
	MagazineFlushes       uint64
	MagazineFlushedBlocks uint64
	// PartialListDrops counts descriptors dropped because the partial
	// list could not accept them (node-pool exhaustion — a bounded
	// leak of superblock capacity in place of the pre-pool panic;
	// the dropped superblock's blocks stay live and freeable).
	PartialListDrops uint64
}

func (s *OpStats) add(o OpStats) {
	s.Mallocs += o.Mallocs
	s.Frees += o.Frees
	s.LargeMallocs += o.LargeMallocs
	s.LargeFrees += o.LargeFrees
	s.FromActive += o.FromActive
	s.FromPartial += o.FromPartial
	s.FromNewSB += o.FromNewSB
	s.NewSBRaceLoss += o.NewSBRaceLoss
	s.EmptySBFreed += o.EmptySBFreed
	s.EmptyPartialSkips += o.EmptyPartialSkips
	s.MagazineHits += o.MagazineHits
	s.MagazineMisses += o.MagazineMisses
	s.MagazineFlushes += o.MagazineFlushes
	s.MagazineFlushedBlocks += o.MagazineFlushedBlocks
	s.PartialListDrops += o.PartialListDrops
}

// Stats is an allocator-wide snapshot.
type Stats struct {
	Ops             OpStats
	DescsAllocated  uint64
	DescsOnFreelist uint64
	Heap            mem.Stats
}

// Stats aggregates per-thread counters and descriptor/heap statistics.
// It is safe to call at any time, including while worker threads run.
//
// Snapshot semantics: every counter is read with an atomic load, so
// values are never torn and each is monotone. Frees, FromActive and
// MagazineHits (and Mallocs, derived from them) are published in
// batches: each lags a handle still in use by fewer than pubBatch (64)
// events and is exact for a handle whose last call was Unregister or
// FlushMagazines, and for all handles after PublishStats. The loads
// happen at slightly different instants, so cross-counter identities
// (Mallocs == Frees) hold exactly only at quiescence, every handle
// published. Mallocs == MagazineHits+FromActive+FromPartial+FromNewSB
// holds by construction: snapshot derives the total.
func (a *Allocator) Stats() Stats {
	var s Stats
	a.mu.Lock()
	for _, t := range a.threads {
		s.Ops.add(t.ops.snapshot())
	}
	a.mu.Unlock()
	s.DescsAllocated = a.descs.Allocated()
	s.DescsOnFreelist = a.descs.Retired()
	s.Heap = a.heap.Stats()
	return s
}

// PublishStats makes the next Stats exact for every handle, those
// nobody unregistered and those whose goroutine died mid-operation
// included. Quiescent callers only, like CheckInvariants. It flushes no
// magazine: a dead thread's cached blocks stay leaked and counted.
func (a *Allocator) PublishStats() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, t := range a.threads {
		t.publish()
	}
}

// ID returns the thread id used for processor-heap selection.
func (t *Thread) ID() uint64 { return t.id }

// Allocator returns the owning allocator.
func (t *Thread) Allocator() *Allocator { return t.a }

// OpStats returns this thread's own operation counters. Safe to call
// from any goroutine; same snapshot semantics as Allocator.Stats.
func (t *Thread) OpStats() OpStats { return t.ops.snapshot() }

// BlockIsLarge reports whether a block returned by Malloc is a large
// block (allocated directly from the OS layer) by inspecting its
// prefix. The offload worker layer uses it to route large frees
// directly instead of deferring them in a batch.
func (a *Allocator) BlockIsLarge(p mem.Ptr) bool { return prefixIsLarge(a.heap.Load(p - 1)) }

// findHeap maps (size class, thread id) to a processor heap (paper:
// "Use sz and thread id to find heap").
func (t *Thread) findHeap(sc *scState) *ProcHeap {
	return t.heaps[sc.class.Index]
}

// Word 0 of a block, the prefix. A large block's is
// mem.SizePrefix(regionWords): the region's rounded word count <<1|1
// (the paper's "desc holds sz+1" with the large-block bit set; rounded
// so the free path passes FreeRegion the canonical region size). A small
// block's has bit 0 clear and two fields: the descriptor index below
// linkShift, written when the superblock is carved and never changed,
// and above it the free-list link — the index of the next free block,
// meaningful while this one is free and stale while it is allocated.
// The carve loop, free and the magazine flush store both at once
// (withLink); malloc stores neither, so serving a block writes no heap
// word. Every reader goes through prefixIsLarge, prefixDesc, prefixLink.
const (
	linkShift  = 64 - atomicx.AnchorAvailBits
	prefixMask = 1<<linkShift - 1

	// Every descriptor index fits below the link field and every block
	// index in it (else the unsigned constant is negative: no compile).
	_ = uint64(1<<(linkShift-1)) - maxDescChunks<<descChunkLog2
	_ = uint64(1<<(64-linkShift)) - atomicx.MaxBlocksPerSuperblock
)

func smallPrefix(descIdx uint64) uint64 { return descIdx << 1 }

func prefixIsLarge(p uint64) bool { return p&1 != 0 }

// prefixDesc is the descriptor index in a small block's word 0.
func prefixDesc(p uint64) uint64 { return (p & prefixMask) >> 1 }

// prefixLink is the free-list link in a free small block's word 0.
func prefixLink(p uint64) uint64 { return p >> linkShift }

// withLink is p with link in place of whatever stale link p carried.
func withLink(p, link uint64) uint64 { return p&prefixMask | link<<linkShift }
