// Package pool implements the chunked, tagged-index node pool that the
// paper's substrate re-derives in four places: the descriptor allocator
// (DescAlloc/DescRetire, Figure 7), the partial-list node pools
// ("similar but simpler than allocating descriptors", §3.2.6), the
// ordered-list node freelist, and the producer-consumer queue. One
// generic implementation replaces all four hand-rolled copies.
//
// Nodes live at stable dense indices in a chunked table that only
// grows; index 0 is reserved as NULL. Two recycling backends share
// that table:
//
//   - AlgoFreelist (default): retired nodes are recycled through one
//     lock-free freelist, Figure 7's DescAvail, an lfstack.Stack whose
//     head is a packed (index:40, tag:24) word (atomicx.Tagged). The paper
//     prevents ABA on DescAvail with hazard pointers (SafeCAS, Figure 7
//     line 4); because pool nodes live at stable indices and are never
//     unmapped, a wide version tag is an equally safe and simpler
//     choice — see DESIGN.md.
//
//   - AlgoConstTime: the Blelloch–Wei constant-time scheme (PAPERS.md,
//     "Concurrent Fixed-Size Allocation and Free in Constant Time").
//     Retired indices are grouped into fixed-size batches; each slot
//     (stripe) privatizes up to two batches with a single wait-free
//     Swap, so the per-node hot path has no CAS retry loop at all.
//     Full/partial/empty batches are exchanged through shared lfstack
//     stacks touched once per batchSize operations. See consttime.go.
//     No allocator or flag selects it: the descriptor pool is the
//     freelist, and this backend is kept for the perf ledger's
//     pool.consttime_pair_ns rung, which builds a Pool with it directly.
package pool

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

// ErrExhausted is returned (wrapped) by Alloc when the pool's chunk
// table is full. Clients surface it through their existing error
// paths; the previous hand-rolled pools crashed the process instead.
var ErrExhausted = errors.New("node pool exhausted")

// Node is the hook a pooled type provides: access to the one word the
// pool uses to link retired nodes. The word holds a packed
// atomicx.Tagged while the node is on a freelist; clients may reuse it
// for their own tagged links while the node is live, as long as every
// store bumps the word's high (tag) bits — tag monotonicity at each
// word is what makes recycling ABA-safe. The constant-time backend
// parks retired indices in batches without touching the link word, so
// the same discipline covers both backends.
type Node interface {
	PoolNext() *atomic.Uint64
}

// Algo selects the recycling backend behind a Pool. The zero value is
// the Figure-7 tagged freelist.
type Algo int

const (
	// AlgoFreelist is the paper's Figure-7 tagged Treiber freelist.
	AlgoFreelist Algo = iota
	// AlgoConstTime is the Blelloch–Wei batch/stack scheme: O(1)
	// shared-memory touches per op, no per-node CAS retry loop.
	AlgoConstTime
)

// String returns the backend's name ("freelist", "consttime").
func (a Algo) String() string {
	switch a {
	case AlgoFreelist:
		return "freelist"
	case AlgoConstTime:
		return "consttime"
	default:
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

// Config parameterizes a Pool.
type Config struct {
	// ChunkLog2 is the log2 of nodes per table chunk; a chunk is also
	// the unit of growth (the paper's DESCSBSIZE) and, for the
	// constant-time backend, the batch size.
	ChunkLog2 uint
	// MaxChunks bounds the table; Alloc returns ErrExhausted beyond it.
	MaxChunks uint64
	// Stripes is the constant-time backend's number of batch slots,
	// one per processor in Blelloch–Wei; 0 selects 1. The freelist
	// backend has the paper's one DescAvail head and ignores it.
	Stripes int
	// Algo selects the recycling backend; the zero value is the
	// Figure-7 tagged freelist.
	Algo Algo
	// AllocSite/RetireSite, when telemetry is attached via
	// SetTelemetry, receive CAS-retry counts for freelist pops and
	// pushes (shared-stack pops and pushes for the constant-time
	// backend); MigrateSite counts the constant-time backend's batch
	// hand-offs between slots — events, not retries. All three are
	// ignored until SetTelemetry is called.
	AllocSite   telemetry.Site
	RetireSite  telemetry.Site
	MigrateSite telemetry.Site
}

// paddedStack is a freelist alone on its cache line.
type paddedStack struct {
	lfstack.Stack
	_ [7]uint64
}

// algoBackend is the recycling strategy behind a Pool: everything
// except the chunk table, bump growth, and accounting, which are
// shared. (The exported Backend interface in queue.go is unrelated: it
// abstracts a whole pool for the FIFO queue.)
type algoBackend interface {
	alloc(stripe int) (uint64, error)
	retireChain(stripe int, first, last, n uint64)
	stripeFree() []uint64
	freeIndices(add func(idx uint64)) error
}

// Pool is a generic chunked tagged-index pool. T is the node type; PT
// is *T constrained to expose the link word.
type Pool[T any, PT interface {
	*T
	Node
}] struct {
	// tab is everything Get reads, grouped ahead of the counters below,
	// which Alloc and Retire write.
	tab       Table[T, PT]
	chunkSize uint64

	be algoBackend

	// links reads and writes the nodes' link words for the freelists
	// (lfstack.TagLinks over PoolNext), made once so that passing it
	// costs no allocation.
	links lfstack.TagLinks

	cfg Config

	tele atomic.Pointer[telemetry.Stripes]

	// nextIdx is the bump counter for never-used indices; it advances
	// in whole chunks via CAS (so exhaustion is stable, not a counter
	// overflow). It starts at one chunk so the chunk containing
	// reserved index 0 is never handed out and batches stay
	// chunk-aligned. Allocated() is derived from this word — see the
	// comment there.
	nextIdx atomic.Uint64

	retired atomic.Uint64 // nodes currently on freelists/batches
}

// New creates an empty pool.
func New[T any, PT interface {
	*T
	Node
}](cfg Config) *Pool[T, PT] {
	if cfg.Stripes < 1 {
		cfg.Stripes = 1
	}
	leafLog := min(uint(bits.Len64(max(cfg.MaxChunks, 1)-1)), maxLeafLog)
	p := &Pool[T, PT]{
		tab: Table[T, PT]{
			dir:       make([]unsafe.Pointer, (cfg.MaxChunks+1<<leafLog-1)>>leafLog),
			chunkLog:  cfg.ChunkLog2,
			dirShift:  cfg.ChunkLog2 + leafLog,
			chunkMask: 1<<cfg.ChunkLog2 - 1,
			leafMask:  1<<leafLog - 1,
		},
		cfg:       cfg,
		chunkSize: 1 << cfg.ChunkLog2,
	}
	for i := range p.tab.dir {
		p.tab.dir[i] = unsafe.Pointer(&noLeaf)
	}
	p.nextIdx.Store(p.chunkSize)
	p.links = func(idx uint64) *atomic.Uint64 { return p.Get(idx).PoolNext() }
	switch cfg.Algo {
	case AlgoConstTime:
		p.be = newBackendConstTime[T, PT](p)
	default:
		p.be = &backendFreelist[T, PT]{p: p}
	}
	return p
}

// SetTelemetry attaches (or, with nil, detaches) striped CAS-retry
// counters recording at the sites named in Config. Safe to call while
// the pool is in use.
func (p *Pool[T, PT]) SetTelemetry(st *telemetry.Stripes) { p.tele.Store(st) }

// unpublishedError is the panic value of a Get for an index whose chunk
// has not been published: an index Alloc never produced. A typed value
// rather than a formatted string so that raising it costs Get no call
// and Get stays within the inliner's budget.
type unpublishedError uint64

func (e unpublishedError) Error() string {
	return fmt.Sprintf("pool: Get(%d): index in an unpublished chunk", uint64(e))
}

// maxLeafLog bounds a leaf at 256 chunks (2 KiB); the first chunk under
// it brings it. noLeaf is every directory entry until then: never
// written, so Get needs no nil check for the directory.
const maxLeafLog = 8

var noLeaf [1 << maxLeafLog]unsafe.Pointer

// Table is a pool's two-level index translation: entry c&leafMask of
// leaf dir[idx>>dirShift] is chunk c's node 0 (nil in noLeaf, or before
// the chunk is published). New allocates only dir, and a Table is
// read-only after it, so a client may keep a copy (Pool.Table) beside
// its own hot fields instead of loading the pool pointer on each lookup.
type Table[T any, PT interface {
	*T
	Node
}] struct {
	dir       []unsafe.Pointer
	chunkLog  uint
	dirShift  uint // chunkLog + the log2 of a leaf's chunks
	chunkMask uint64
	leafMask  uint64 // a leaf's chunks - 1
}

// Table returns a copy of the pool's index translation.
func (p *Pool[T, PT]) Table() Table[T, PT] { return p.tab }

// chunkBase loads the table entry of idx's chunk: the address of the
// chunk's node 0, or nil if the chunk is not published. An index beyond
// the table fails the directory's bounds check or, in the last leaf,
// finds nil. (Masking the shift counts tells the compiler they are below
// 64, which New guarantees.)
func (t *Table[T, PT]) chunkBase(idx uint64) unsafe.Pointer {
	return atomic.LoadPointer((*unsafe.Pointer)(unsafe.Add(atomic.LoadPointer(&t.dir[idx>>(t.dirShift&63)]), idx>>(t.chunkLog&63)&t.leafMask*8)))
}

// nodeAt returns idx's node within the chunk that starts at base.
func (t *Table[T, PT]) nodeAt(base unsafe.Pointer, idx uint64) PT {
	var zero T
	return PT(unsafe.Add(base, (idx&t.chunkMask)*uint64(unsafe.Sizeof(zero))))
}

// Get returns the node with the given index, which must have been
// produced by Alloc: a directory and a leaf load plus a masked offset.
func (t *Table[T, PT]) Get(idx uint64) PT {
	base := t.chunkBase(idx)
	if base == nil {
		panic(unpublishedError(idx))
	}
	return t.nodeAt(base, idx)
}

// Get is Table.Get on the pool's own table.
func (p *Pool[T, PT]) Get(idx uint64) PT { return p.tab.Get(idx) }

// TryGet returns the node with the given index, or nil if the chunk
// holding it has not been published yet. grow advances the bump
// counter (and therefore Limit) by CAS before it builds and publishes
// the chunk, so a concurrent walker iterating [First, Limit) can
// observe an index whose chunk pointer is still nil; no node of such a
// chunk has ever been handed out, so skipping it is sound.
func (p *Pool[T, PT]) TryGet(idx uint64) PT {
	base := p.tab.chunkBase(idx)
	if base == nil {
		return nil
	}
	return p.tab.nodeAt(base, idx)
}

// retry records n failed CASes at site, if telemetry is attached.
func (p *Pool[T, PT]) retry(site telemetry.Site, key uint64, n int) {
	if st := p.tele.Load(); st != nil {
		for ; n > 0; n-- {
			st.Retry(site, key)
		}
	}
}

// Alloc pops a retired node (backend dependent: freelist pop, or a
// batch pop from the caller's slot) or carves a fresh chunk (DescAlloc,
// Figure 7). stripe is any non-negative caller identity (typically a
// thread id); the constant-time backend reduces it modulo its slot
// count, the freelist ignores it. Lock-free; wait-free per-node for the
// constant-time backend.
func (p *Pool[T, PT]) Alloc(stripe int) (uint64, error) {
	return p.be.alloc(stripe)
}

// Retire pushes a node onto the freelist, or into the caller's slot
// (DescRetire, Figure 7). Lock-free; never fails.
func (p *Pool[T, PT]) Retire(stripe int, idx uint64) {
	p.be.retireChain(stripe, idx, idx, 1)
}

// RetireChain pushes the chain first..last (already linked node to
// node via packed link words, except last) of n nodes, like Retire.
// Lock-free.
func (p *Pool[T, PT]) RetireChain(stripe int, first, last, n uint64) {
	p.be.retireChain(stripe, first, last, n)
}

// grow materializes one chunk of fresh nodes linked first→first+1→…→0
// and returns the first index. The bump is CAS-guarded so exhaustion
// is stable: a full table keeps returning ErrExhausted instead of
// advancing the counter. The CAS also advances Allocated (which is
// derived from the same word), so Allocated() == Limit()-First() holds
// unconditionally — including between the bump and the chunk's
// publication, and after ErrExhausted.
//
// A chunk is one Go allocation. For a pointer-free node type whose size
// is a multiple of the cache line (core.Descriptor is two lines), the
// allocator's size classes start it on a line boundary, so every node
// owns its lines and two threads working on neighbouring indices never
// share one; TestLineSizedNodesGetOwnLines pins that property.
func (p *Pool[T, PT]) grow() (uint64, error) {
	for {
		base := p.nextIdx.Load()
		ci := base >> p.tab.chunkLog
		if ci >= p.cfg.MaxChunks {
			return 0, fmt.Errorf("pool: %d chunks of %d nodes: %w",
				p.cfg.MaxChunks, p.chunkSize, ErrExhausted)
		}
		if !p.nextIdx.CompareAndSwap(base, base+p.chunkSize) {
			continue
		}
		s := make([]T, p.chunkSize)
		for i := range s {
			n := base + uint64(i) + 1
			if i == len(s)-1 {
				n = 0
			}
			PT(&s[i]).PoolNext().Store(atomicx.Tagged{Idx: n}.Pack())
		}
		slot := &p.tab.dir[base>>p.tab.dirShift]
		leaf := atomic.LoadPointer(slot)
		if leaf == unsafe.Pointer(&noLeaf) {
			// Install the leaf, or take another carver's.
			leaf = unsafe.Pointer(unsafe.SliceData(make([]unsafe.Pointer, p.tab.leafMask+1)))
			if !atomic.CompareAndSwapPointer(slot, unsafe.Pointer(&noLeaf), leaf) {
				leaf = atomic.LoadPointer(slot)
			}
		}
		entry := (*unsafe.Pointer)(unsafe.Add(leaf, (ci&p.tab.leafMask)*8))
		if !atomic.CompareAndSwapPointer(entry, nil, unsafe.Pointer(unsafe.SliceData(s))) {
			panic("pool: chunk slot already populated")
		}
		return base, nil
	}
}

// popNode pops one node off a freelist, or returns 0 if it is empty.
// The paper pops DescAvail with SafeCAS (hazard-pointer protected); the
// tagged head gives the same ABA safety for index-addressed nodes.
func (p *Pool[T, PT]) popNode(s *paddedStack, site telemetry.Site) uint64 {
	idx, fails := s.Pop(p.links)
	p.retry(site, idx, fails)
	return idx
}

// spliceChain pushes the chain first..last onto a freelist; it does not
// touch the retired counter, which its callers add to.
func (p *Pool[T, PT]) spliceChain(s *paddedStack, first, last uint64) {
	p.retry(p.cfg.RetireSite, first, s.Push(p.links, first, last))
}

// chainWalk calls visit for each index of the chain starting at first,
// following packed link words, for at most n nodes.
func (p *Pool[T, PT]) chainWalk(first, n uint64, visit func(idx uint64)) {
	idx := first
	for i := uint64(0); i < n && idx != 0; i++ {
		next := p.links.Next(idx)
		visit(idx)
		idx = next
	}
}

// Allocated returns how many nodes have ever been created. It is
// derived from the bump counter, so Allocated() == Limit()-First()
// holds at every instant — there is no window where a grown chunk is
// counted by one accessor and not the other (the old separate counter
// lagged chunk publication, so an exhausted or racing pool could
// briefly report Allocated < Limit-First).
func (p *Pool[T, PT]) Allocated() uint64 { return p.nextIdx.Load() - p.chunkSize }

// Retired returns how many nodes are currently on freelists (or, for
// the constant-time backend, parked in batches).
func (p *Pool[T, PT]) Retired() uint64 { return p.retired.Load() }

// First returns the lowest valid node index (one chunk, since the
// chunk containing reserved index 0 is never handed out).
func (p *Pool[T, PT]) First() uint64 { return p.chunkSize }

// Limit returns one past the highest index ever handed out; indices
// in [First, Limit) are exactly the nodes counted by Allocated.
func (p *Pool[T, PT]) Limit() uint64 { return p.nextIdx.Load() }

// StripeFree returns the number of retired nodes: one entry, the
// freelist's length, for the freelist backend; one entry per slot for
// the constant-time backend — the nodes parked in that slot's private
// batches, with the shared full/partial stacks and the overflow list
// attributed to slot 0. The walk races with concurrent Alloc/Retire
// (every walk is step-bounded, so a torn snapshot can only mis-count,
// not loop); exact results need a quiescent pool.
func (p *Pool[T, PT]) StripeFree() []uint64 { return p.be.stripeFree() }

// FreeIndices returns the set of node indices currently on freelists,
// or an error naming an index found free twice (a cycle in a freelist's
// links, or a node both listed and batched). Every walk is
// step-bounded, so corrupt links end it. Quiescent callers only
// (invariant checkers, tests).
func (p *Pool[T, PT]) FreeIndices() (map[uint64]bool, error) {
	out := make(map[uint64]bool)
	var dup error
	err := p.be.freeIndices(func(idx uint64) {
		if out[idx] && dup == nil {
			dup = fmt.Errorf("pool: index %d is free twice", idx)
		}
		out[idx] = true
	})
	if dup != nil {
		err = dup
	}
	return out, err
}
