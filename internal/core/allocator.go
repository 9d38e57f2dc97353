// Package core implements the completely lock-free dynamic memory
// allocator of Michael, "Scalable Lock-Free Dynamic Memory Allocation"
// (PLDI 2004), over the simulated address space of internal/mem.
//
// The structure follows the paper exactly (§3): the heap is composed of
// superblocks divided into equal-size blocks, of 16 KiB or, for nine
// classes above 896 B, 12 KiB (each size class has its own superblock
// size, the paper's sbsize); superblocks are distributed among size
// classes; each size class has one processor heap per processor; a
// processor heap holds at most one ACTIVE superblock (through its
// Active word) and one most-recently-used PARTIAL superblock (through
// its Partial slot); each size class keeps a lock-free FIFO list of
// further partial superblocks. Large blocks bypass all of this and go
// straight to the OS layer.
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
	"repro/internal/pool"
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
	// Thread keeps up to MagazineSize blocks per size class, and never
	// more than one superblock's worth (the class's MaxCount), in a
	// private cache, refilled and flushed in batches so the shared
	// Active/anchor words are touched once per batch instead of once
	// per operation (see magazine.go and DESIGN.md). 0 (the default)
	// disables the layer, preserving the paper-faithful hot paths.
	// Memory blowup is bounded by one superblock per class per thread
	// (at most 46 × 16 KiB a thread) held outside the shared
	// structures; Thread.Unregister returns it.
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
	// layer: CAS-retry counters at every contention site, malloc/free
	// latency histograms (one operation in telemetry.Interval timed)
	// and a view of the operation counts Stats reads. Create one with
	// NewRecorder so its rows match the size-class table. When nil (the
	// default), Malloc and Free take the bare path, which only counts,
	// and every other instrumented site costs one nil check.
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
	descTab pool.Table[Descriptor, *Descriptor] // descs' table: a lookup loads no pool pointer

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
	_ [24]byte
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
	// descriptor table and the partial lists: as many as the smallest
	// superblock of the table fits.
	minSBWords := uint64(sizeclass.SuperblockWords)
	for _, c := range sizeclass.All() {
		minSBWords = min(minSBWords, c.SBWords)
	}
	maxSuperblocks := h.TotalWords() / minSBWords
	a := &Allocator{
		heap:       h,
		cfg:        cfg,
		procs:      uint64(cfg.Processors),
		maxCredits: uint64(cfg.MaxCredits),
		classes:    make([]scState, sizeclass.NumClasses()),
		descs:      newDescPool(maxSuperblocks, cfg.Processors),
	}
	a.descTab = a.descs.Table()
	if cfg.Hyperblocks {
		// 64 superblocks per hyperblock = 1 MiB batches (§3.2.5), of
		// 16 KiB superblocks only: allocSB and freeSB send the others
		// to the OS layer's regions.
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
	// their nodes from one pool, plus a FIFO's dummy node per list.
	// EMPTY descriptors awaiting removal add to the live ones, and
	// listRemoveEmptyDesc keeps them under half of each list: the pool
	// is sized, like the descriptor table, for two descriptors for each
	// superblock the address space has room for, which also covers the
	// chunk of indices a node pool keeps back (partial.NewNodes). A Put
	// beyond the bound is dropped and counted exactly as at pool
	// exhaustion.
	nodes := partial.NewNodes(2*maxSuperblocks + uint64(len(a.classes)))
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
func (a *Allocator) desc(idx uint64) *Descriptor { return a.descTab.Get(idx) }

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
	id := a.nextThread.Add(1) - 1
	t := &Thread{a: a, id: id, proc: id % a.procs}
	if a.tele != nil {
		t.rec = a.tele.NewShard()
		t.counts = t.rec.Counts()
		t.mallocTick, t.freeTick = telemetry.Interval, telemetry.Interval
	} else {
		t.counts = telemetry.NewCounts(len(a.classes))
	}
	if a.cfg.MagazineSize > 0 {
		t.magCap = a.cfg.MagazineSize
		t.mags = make([]magazine, len(a.classes))
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
	// First cache line: what every Malloc and Free reads. counts is
	// every operation's one count, which Stats reads, in plain words of
	// the owner: a LOCK XADD each was a fifth of an uncontended pair.
	a      *Allocator
	proc   uint64 // processor index: this thread's heap in every class
	counts telemetry.Counts
	rec    *telemetry.ThreadShard // non-nil when telemetry is attached
	_      [16]byte

	// Second line: the rest of what they read, the magazines among it
	// (Config.MagazineSize > 0; private block caches per size class).
	hookFn func(HookPoint)
	magCap int // Config.MagazineSize; 0 = layer disabled
	// The countdowns to the next timed malloc and free (due).
	mallocTick, freeTick uint64
	mags                 []magazine
	id                   uint64

	// Third line: what the slow paths use.
	magScratch []mem.Ptr // reused flush-group buffer
	_          [40]byte

	// ops is what Stats and OpStats load, from any goroutine, beside the
	// operation counts: the events whose paths already cost a
	// superblock, a flush or an OS call, added in place.
	ops opCounters

	// Pad into the 320-byte size class, a whole number of lines: every
	// Thread starts on a line boundary (layout.go pins size and phase).
	_ [56]byte
}

// opCounters is the per-thread block of event counters Stats loads
// atomically. Operation counts are not here: each is one count in the
// thread's counts, by the path that served it (snapshot). The owning
// thread is every counter's only writer, so it adds with a plain store
// (add), like the counts: no locked instruction.
type opCounters struct {
	newSBRaceLoss     uint64
	emptySBFreed      uint64
	emptyPartialSkips uint64
	magMisses         uint64
	magFlushes        uint64
	magFlushedBlocks  uint64
	partialListDrops  uint64
	remoteFrees       uint64
	remoteSplices     uint64
}

// add adds d to one of the calling thread's own counters.
func add(c *uint64, d uint64) { atomicx.PlainStore(c, *c+d) }

// snapshot loads every counter of the thread. Loads are individually
// atomic but not mutually consistent (see Stats). Every successful
// small malloc is counted on exactly one of the four paths (magazine
// hit, active, partial, new superblock), so Mallocs is their sum.
func (t *Thread) snapshot() OpStats {
	c := &t.ops
	mh, _ := t.counts.Counted(telemetry.PathMagazine)
	fa, _ := t.counts.Counted(telemetry.PathActive)
	fp, _ := t.counts.Counted(telemetry.PathPartial)
	fn, _ := t.counts.Counted(telemetry.PathNewSB)
	_, lm := t.counts.Counted(telemetry.PathLarge)
	frees, lf := t.counts.Counted(telemetry.PathFree)
	return OpStats{
		Mallocs:               mh + fa + fp + fn,
		Frees:                 frees,
		LargeMallocs:          lm,
		LargeFrees:            lf,
		FromActive:            fa,
		FromPartial:           fp,
		FromNewSB:             fn,
		NewSBRaceLoss:         atomic.LoadUint64(&c.newSBRaceLoss),
		EmptySBFreed:          atomic.LoadUint64(&c.emptySBFreed),
		EmptyPartialSkips:     atomic.LoadUint64(&c.emptyPartialSkips),
		MagazineHits:          mh,
		MagazineMisses:        atomic.LoadUint64(&c.magMisses),
		MagazineFlushes:       atomic.LoadUint64(&c.magFlushes),
		MagazineFlushedBlocks: atomic.LoadUint64(&c.magFlushedBlocks),
		PartialListDrops:      atomic.LoadUint64(&c.partialListDrops),
		RemoteFrees:           atomic.LoadUint64(&c.remoteFrees),
		RemoteSplices:         atomic.LoadUint64(&c.remoteSplices),
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
	// RemoteFrees counts frees pushed onto a remote stack (remote.go),
	// RemoteSplices the non-empty stacks spliced at a last credit.
	RemoteFrees   uint64
	RemoteSplices uint64
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
	s.RemoteFrees += o.RemoteFrees
	s.RemoteSplices += o.RemoteSplices
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
// values are never torn and each is monotone; each counts every event
// of its kind that completed before the load, handles still in use
// included. The loads happen at slightly different instants, so
// cross-counter identities (Mallocs == Frees) hold exactly only at
// quiescence. Mallocs == MagazineHits+FromActive+FromPartial+FromNewSB
// holds by construction: snapshot derives the total.
func (a *Allocator) Stats() Stats {
	var s Stats
	a.mu.Lock()
	for _, t := range a.threads {
		s.Ops.add(t.snapshot())
	}
	a.mu.Unlock()
	s.DescsAllocated = a.descs.Allocated()
	s.DescsOnFreelist = a.descs.Retired()
	s.Heap = a.heap.Stats()
	return s
}

// ID returns the thread id used for processor-heap selection.
func (t *Thread) ID() uint64 { return t.id }

// Allocator returns the owning allocator.
func (t *Thread) Allocator() *Allocator { return t.a }

// OpStats returns this thread's own operation counters. Safe to call
// from any goroutine; same snapshot semantics as Allocator.Stats.
func (t *Thread) OpStats() OpStats { return t.snapshot() }

// BlockIsLarge reports whether a block returned by Malloc is a large
// block (allocated directly from the OS layer) by inspecting its
// prefix. The offload worker layer uses it to route large frees
// directly instead of deferring them in a batch.
func (a *Allocator) BlockIsLarge(p mem.Ptr) bool { return prefixIsLarge(a.heap.Load(p - 1)) }

// findHeap maps (size class, thread id) to a processor heap (paper:
// "Use sz and thread id to find heap"); the processor index is the
// thread id modulo the processors, taken once in Thread.
func (t *Thread) findHeap(sc *scState) *ProcHeap {
	return &sc.heaps[t.proc]
}

// Word 0 of a block, the prefix. A large block's is
// mem.SizePrefix(regionWords): the region's rounded word count <<1|1
// (the paper's "desc holds sz+1" with the large-block bit set; rounded
// so the free path passes FreeRegion the canonical region size). A small
// block's has bit 0 clear and three fields: the descriptor index below
// classShift and the size class below linkShift, both written when the
// superblock is carved and never changed, and above them the free-list
// link — the index of the next free block, meaningful while this one is
// free and stale while it is allocated. The carve loop, free and the
// magazine flush store all three at once (withLink); malloc stores
// none, so serving a block writes no heap word, and a free into a
// magazine reads its class here, not from the descriptor. Every reader
// goes through prefixIsLarge, prefixDesc, prefixClass, prefixLink.
const (
	linkShift  = 64 - atomicx.AnchorAvailBits
	prefixMask = 1<<linkShift - 1
	classBits  = 6
	classShift = linkShift - classBits

	// Every descriptor index fits below the class field and every block
	// index in the link field (else the unsigned constant is negative: no
	// compile); TestPrefixFieldsHoldEveryClass checks the class table.
	_ = uint64(1<<(classShift-1)) - maxDescChunks<<descChunkLog2
	_ = uint64(1<<(64-linkShift)) - atomicx.MaxBlocksPerSuperblock
)

func smallPrefix(descIdx uint64, cls int) uint64 { return descIdx<<1 | uint64(cls)<<classShift }

func prefixIsLarge(p uint64) bool { return p&1 != 0 }

// prefixDesc is the descriptor index in a small block's word 0.
func prefixDesc(p uint64) uint64 { return (p & (1<<classShift - 1)) >> 1 }

// prefixClass is the size-class index in a small block's word 0.
func prefixClass(p uint64) int { return int((p & prefixMask) >> classShift) }

// prefixLink is the free-list link in a free small block's word 0.
func prefixLink(p uint64) uint64 { return p >> linkShift }

// withLink is p with link in place of whatever stale link p carried.
func withLink(p, link uint64) uint64 { return p&prefixMask | link<<linkShift }
