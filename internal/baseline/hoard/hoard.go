// Package hoard implements a Hoard-like lock-based baseline allocator
// (Berger et al., ASPLOS 2000), the primary comparison point of the
// paper and the source of its high-level heap organization.
//
// Faithful elements: multiple processor heaps (2P) plus one global
// heap; superblocks of one size class each; per-superblock fullness
// statistics and per-heap u (in-use) / a (capacity) statistics; the
// emptiness invariant that moves a mostly-empty superblock to the
// global heap when u < a − K·S and u < (1−f)·a; malloc allocating from
// the fullest non-full superblock of the thread's heap, refilling from
// the global heap before the OS; free returning blocks to the owning
// superblock under the owner heap's lock.
//
// Lock counts match the paper's latency analysis (§4.2.1): malloc
// acquires one lock (the processor heap's) in the common case, and free
// acquires two (the superblock's, then the owner heap's), three lock
// operations per malloc/free pair.
package hoard

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/sizeclass"
)

const (
	// fullness groups per class: group g holds superblocks with
	// inUse/maxcount in [g/4, (g+1)/4); a fifth group holds full ones.
	groups    = 4
	fullGroup = groups

	// emptyFraction is Hoard's f: a heap must keep u ≥ (1-f)·a.
	emptyFractionNum = 1
	emptyFractionDen = 4

	// slack is Hoard's K: a heap may hold at most K superblocks' worth
	// of unused capacity before shedding one to the global heap.
	slack = 4
)

// Config configures the allocator.
type Config struct {
	// Processors is P; the allocator creates 2P processor heaps plus
	// the global heap. 0 selects GOMAXPROCS via the core default.
	Processors int
	HeapConfig mem.Config
}

// superblock is one size-class superblock with its statistics. Fields
// other than mu/owner are protected by the owner heap's lock.
type superblock struct {
	mu    sync.Mutex
	owner atomic.Int32 // heap index; 0 is the global heap

	idx      uint64 // table index, stored in block prefixes
	class    sizeclass.Class
	base     mem.Ptr
	freeHead uint64 // next free block index; class.MaxCount = none
	inUse    uint64

	group      int // current fullness group
	next, prev *superblock
	dead       bool // released back to the OS
}

// heapT is one heap (processor or global). bins[class][group] is a
// doubly-linked list of superblocks.
type heapT struct {
	mu   sync.Mutex
	bins [][]*superblock
	u, a uint64 // words in use / capacity words
	_    [4]uint64
}

// Allocator is the Hoard-like baseline.
type Allocator struct {
	heap  *mem.Heap
	procs int
	heaps []heapT // heaps[0] is the global heap

	table   atomic.Pointer[[]*superblock] // idx -> superblock, wait-free reads
	tableMu sync.Mutex

	nextThread atomic.Uint64
}

// New constructs the allocator.
func New(cfg Config) *Allocator {
	if cfg.Processors <= 0 {
		cfg.Processors = defaultProcessors()
	}
	h := mem.NewHeap(cfg.HeapConfig)
	a := &Allocator{
		heap:  h,
		procs: cfg.Processors,
		heaps: make([]heapT, 1+2*cfg.Processors),
	}
	for i := range a.heaps {
		bins := make([][]*superblock, sizeclass.NumClasses())
		for c := range bins {
			bins[c] = make([]*superblock, groups+1)
		}
		a.heaps[i].bins = bins
	}
	empty := make([]*superblock, 1) // index 0 reserved
	a.table.Store(&empty)
	return a
}

// Name identifies the allocator in benchmark output.
func (a *Allocator) Name() string { return "hoard" }

// Heap returns the backing address space.
func (a *Allocator) Heap() *mem.Heap { return a.heap }

// Thread registers a worker and returns its handle.
func (a *Allocator) Thread() *Thread {
	return &Thread{a: a, id: a.nextThread.Add(1) - 1}
}

// Thread is a per-goroutine handle; the thread id hashes to a
// processor heap as in Hoard.
type Thread struct {
	a  *Allocator
	id uint64
}

func (t *Thread) heapIndex() int { return 1 + int(t.id)%(2*t.a.procs) }

// UsableWords returns the payload words available in the block at p
// (the malloc_usable_size analogue): the size class's block words for
// superblock blocks, the region words for direct OS blocks, minus the
// prefix word either way.
func (t *Thread) UsableWords(p mem.Ptr) uint64 {
	prefix := t.a.heap.Load(p - 1)
	if prefix&1 != 0 {
		return mem.SizePrefixWords(prefix) - 1
	}
	return t.a.sbByIdx(prefix>>1).class.BlockWords - 1
}

func (sb *superblock) groupFor() int {
	if sb.inUse == sb.class.MaxCount {
		return fullGroup
	}
	return int(sb.inUse * groups / sb.class.MaxCount)
}

// unlink removes sb from its owner's bin list.
func (h *heapT) unlink(sb *superblock) {
	c := sb.class.Index
	if sb.prev != nil {
		sb.prev.next = sb.next
	} else {
		h.bins[c][sb.group] = sb.next
	}
	if sb.next != nil {
		sb.next.prev = sb.prev
	}
	sb.next, sb.prev = nil, nil
}

// link inserts sb at the head of its fullness group's list.
func (h *heapT) link(sb *superblock) {
	c := sb.class.Index
	g := sb.groupFor()
	sb.group = g
	sb.next = h.bins[c][g]
	sb.prev = nil
	if sb.next != nil {
		sb.next.prev = sb
	}
	h.bins[c][g] = sb
}

// regroup moves sb to its correct fullness group after inUse changed.
func (h *heapT) regroup(sb *superblock) {
	if g := sb.groupFor(); g != sb.group {
		h.unlink(sb)
		h.link(sb)
	}
}

func (a *Allocator) sbByIdx(idx uint64) *superblock {
	return (*a.table.Load())[idx]
}

func (a *Allocator) register(sb *superblock) {
	a.tableMu.Lock()
	old := *a.table.Load()
	idx := uint64(len(old))
	grown := make([]*superblock, len(old)+1)
	copy(grown, old)
	grown[idx] = sb
	sb.idx = idx
	a.table.Store(&grown)
	a.tableMu.Unlock()
}

// Malloc allocates size payload bytes.
func (t *Thread) Malloc(size uint64) (mem.Ptr, error) {
	a := t.a
	cls, small := sizeclass.For(size)
	if !small {
		// The prefix records the rounded region size, the canonical
		// value for FreeRegion on the free path.
		return a.heap.LargeAlloc(size, mem.SizePrefix)
	}
	hi := t.heapIndex()
	h := &a.heaps[hi]
	h.mu.Lock()
	// Allocate from the fullest non-full superblock of this class.
	sb := h.fullestNonFull(cls.Index)
	if sb == nil {
		sb = a.refill(h, hi, cls)
		if sb == nil {
			var err error
			sb, err = a.newSuperblock(h, hi, cls)
			if err != nil {
				h.mu.Unlock()
				return 0, err
			}
		}
	}
	block := sb.popBlock(a.heap)
	h.u += cls.BlockWords
	h.regroup(sb)
	h.mu.Unlock()
	a.heap.Store(block, sb.idx<<1)
	return block.Add(1), nil
}

func (h *heapT) fullestNonFull(class int) *superblock {
	for g := groups - 1; g >= 0; g-- {
		for sb := h.bins[class][g]; sb != nil; sb = sb.next {
			if sb.inUse < sb.class.MaxCount {
				return sb
			}
		}
	}
	return nil
}

// refill transfers one superblock of the class from the global heap.
// Caller holds h's lock; the global heap's lock is acquired second
// (lock order: processor heap before global heap, everywhere).
func (a *Allocator) refill(h *heapT, hi int, cls sizeclass.Class) *superblock {
	g0 := &a.heaps[0]
	g0.mu.Lock()
	sb := g0.fullestNonFull(cls.Index)
	if sb == nil {
		g0.mu.Unlock()
		return nil
	}
	cap := sb.class.MaxCount * sb.class.BlockWords
	use := sb.inUse * sb.class.BlockWords
	// The whole transfer — unlink, owner change, relink — happens
	// while holding BOTH heap locks (the caller holds h's): a
	// concurrent free that read owner==global and acquired the global
	// lock after our release must observe the new owner and retry,
	// never a superblock halfway between heaps.
	g0.unlink(sb)
	g0.a -= cap
	g0.u -= use
	sb.owner.Store(int32(hi))
	h.link(sb)
	h.a += cap
	h.u += use
	g0.mu.Unlock()
	return sb
}

// newSuperblock allocates a fresh superblock from the OS into heap h.
// Caller holds h's lock.
func (a *Allocator) newSuperblock(h *heapT, hi int, cls sizeclass.Class) (*superblock, error) {
	base, _, err := a.heap.AllocRegion(cls.SBWords)
	if err != nil {
		return nil, err
	}
	sb := &superblock{class: cls, base: base, freeHead: 0}
	// Link writes through Heap.Store: a lock-free structure's stale
	// reader may still be examining words of a recycled region (see the
	// note on chunkheap's link accessors).
	for i := uint64(0); i < cls.MaxCount; i++ {
		a.heap.Store(base.Add(i*cls.BlockWords), i+1)
	}
	sb.owner.Store(int32(hi))
	a.register(sb)
	h.link(sb)
	h.a += cls.MaxCount * cls.BlockWords
	return sb, nil
}

// popBlock removes the head of sb's free list. Caller holds the owner
// heap's lock and sb has a free block.
func (sb *superblock) popBlock(h *mem.Heap) mem.Ptr {
	idx := sb.freeHead
	block := sb.base.Add(idx * sb.class.BlockWords)
	sb.freeHead = h.Get(block)
	sb.inUse++
	return block
}

// Free returns a block to its superblock, under the superblock's lock
// and then the owner heap's lock (two acquisitions, as in Hoard).
func (t *Thread) Free(p mem.Ptr) {
	if p.IsNil() {
		return
	}
	a := t.a
	block := p - 1
	prefix := a.heap.Load(block)
	if prefix&1 != 0 {
		a.heap.LargeFree(p, mem.SizePrefixWords(prefix))
		return
	}
	sb := a.sbByIdx(prefix >> 1)
	sb.mu.Lock()
	var h *heapT
	var hi int
	for {
		hi = int(sb.owner.Load())
		h = &a.heaps[hi]
		h.mu.Lock()
		if int(sb.owner.Load()) == hi {
			break
		}
		h.mu.Unlock()
	}
	// Push the block. The link write goes through Heap.Store: a
	// lock-free structure's stale reader may still read this word (see
	// the note on chunkheap's link accessors).
	idx := block.Sub(sb.base) / sb.class.BlockWords
	a.heap.Store(block, sb.freeHead)
	sb.freeHead = idx
	sb.inUse--
	h.u -= sb.class.BlockWords
	h.regroup(sb)
	sb.mu.Unlock()

	if hi == 0 {
		// Global heap: release fully-empty superblocks to the OS.
		if sb.inUse == 0 {
			h.unlink(sb)
			h.a -= sb.class.MaxCount * sb.class.BlockWords
			sb.dead = true
			a.heap.FreeRegion(sb.base, sb.class.SBWords)
		}
		h.mu.Unlock()
		return
	}
	// Emptiness invariant: u ≥ a − K·S and u ≥ (1−f)·a, S the freed
	// block's superblock size; on violation move the emptiest superblock
	// of some class to the global heap.
	if h.u+slack*sb.class.SBWords < h.a &&
		h.u*emptyFractionDen < h.a*(emptyFractionDen-emptyFractionNum) {
		if victim := h.emptiest(); victim != nil {
			cap := victim.class.MaxCount * victim.class.BlockWords
			use := victim.inUse * victim.class.BlockWords
			h.unlink(victim)
			h.a -= cap
			h.u -= use
			g0 := &a.heaps[0]
			g0.mu.Lock() // lock order: processor heap, then global
			victim.owner.Store(0)
			g0.link(victim)
			g0.a += cap
			g0.u += use
			g0.mu.Unlock()
		}
	}
	h.mu.Unlock()
}

// emptiest returns the emptiest superblock in the heap (lowest
// occupied fullness group, any class), preferring completely empty
// ones.
func (h *heapT) emptiest() *superblock {
	var best *superblock
	bestFrac := ^uint64(0)
	for c := range h.bins {
		for g := 0; g <= fullGroup; g++ {
			sb := h.bins[c][g]
			if sb == nil {
				continue
			}
			if frac := sb.inUse * 1024 / sb.class.MaxCount; frac < bestFrac {
				best, bestFrac = sb, frac
			}
			break // groups above g are at least as full in this class
		}
	}
	return best
}

func defaultProcessors() int { return runtime.GOMAXPROCS(0) }
