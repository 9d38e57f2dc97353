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
//   - AlgoFreelist (default): retired nodes are recycled through
//     lock-free Treiber freelists whose heads are packed (index:40,
//     tag:24) words (atomicx.Tagged). The paper prevents ABA on
//     DescAvail with hazard pointers (SafeCAS, Figure 7 line 4);
//     because pool nodes live at stable indices and are never
//     unmapped, a wide version tag is an equally safe and simpler
//     choice — see DESIGN.md.
//
//   - AlgoConstTime: the Blelloch–Wei constant-time scheme (PAPERS.md,
//     "Concurrent Fixed-Size Allocation and Free in Constant Time").
//     Retired indices are grouped into fixed-size batches; each slot
//     (stripe) privatizes up to two batches with a single wait-free
//     Swap, so the per-node hot path has no CAS retry loop at all.
//     Full/partial/empty batches are exchanged through shared tagged
//     stacks touched once per batchSize operations. See consttime.go.
//
// Beyond the paper, the freelist head can be striped: each stripe is a
// cache-padded independent head, callers pick a stripe by thread id,
// and a dry stripe pulls a sibling's whole chain with one CAS (batched
// migration).
// With Stripes=1 the pool is behaviour-identical to the original
// single-head DescAvail freelist.
package pool

import (
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"

	"repro/internal/atomicx"
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
	// AlgoFreelist is the paper's Figure-7 tagged Treiber freelist
	// (striped, with whole-chain migration).
	AlgoFreelist Algo = iota
	// AlgoConstTime is the Blelloch–Wei batch/stack scheme: O(1)
	// shared-memory touches per op, no per-node CAS retry loop.
	AlgoConstTime
)

// String returns the flag-friendly name ("freelist", "consttime").
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

// ParseAlgo maps a flag string to an Algo. The empty string selects
// the default freelist backend.
func ParseAlgo(s string) (Algo, error) {
	switch s {
	case "", "freelist":
		return AlgoFreelist, nil
	case "consttime":
		return AlgoConstTime, nil
	default:
		return 0, fmt.Errorf("pool: unknown algo %q (want freelist or consttime)", s)
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
	// Stripes is the number of independent freelist heads (freelist
	// backend) or batch slots (constant-time backend). 0 or 1 selects
	// the paper's single DescAvail word.
	Stripes int
	// Algo selects the recycling backend; the zero value is the
	// Figure-7 tagged freelist.
	Algo Algo
	// AllocSite/RetireSite, when telemetry is attached via
	// SetTelemetry, receive CAS-retry counts for freelist pops and
	// pushes (shared-stack pops and pushes for the constant-time
	// backend); MigrateSite counts cross-stripe chain migrations
	// (batch handoffs through the shared stacks for the constant-time
	// backend) — events, not retries. All three are ignored until
	// SetTelemetry is called.
	AllocSite   telemetry.Site
	RetireSite  telemetry.Site
	MigrateSite telemetry.Site
}

// stripe is one cache-padded freelist head: a packed (index, tag) word.
type stripe struct {
	head atomic.Uint64
	_    [7]uint64
}

// migrateTestHook, when non-nil, runs after a migration detaches a
// victim stripe's chain and before it is spliced into the local
// stripe. Tests use it to force deterministic interleavings; it must
// only be set while the pool is quiescent.
var migrateTestHook func(local, victim int)

// algoBackend is the recycling strategy behind a Pool: everything
// except the chunk table, bump growth, and accounting, which are
// shared. (The exported Backend interface in queue.go is unrelated: it
// abstracts a whole pool for the FIFO queue.)
type algoBackend interface {
	alloc(stripe int) (uint64, error)
	retireChain(stripe int, first, last, n uint64)
	nstripes() int
	stripeFree() []uint64
	freeIndices() map[uint64]bool
}

// Pool is a generic chunked tagged-index pool. T is the node type; PT
// is *T constrained to expose the link word.
type Pool[T any, PT interface {
	*T
	Node
}] struct {
	// chunks is the flat index-translation table: chunks[c] is the
	// address of node 0 of chunk c, or nil until grow publishes the
	// chunk. With chunkLog and chunkMask it is everything Get reads, so a
	// node is one table load away from its index. Read-only after New
	// (the table's entries are written once each, nil → base), and
	// grouped ahead of the counters below, which Alloc and Retire write.
	chunks    []unsafe.Pointer
	chunkLog  uint
	chunkMask uint64
	chunkSize uint64

	be algoBackend

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
	p := &Pool[T, PT]{
		chunks:    make([]unsafe.Pointer, cfg.MaxChunks),
		cfg:       cfg,
		chunkLog:  cfg.ChunkLog2,
		chunkSize: 1 << cfg.ChunkLog2,
		chunkMask: 1<<cfg.ChunkLog2 - 1,
	}
	p.nextIdx.Store(p.chunkSize)
	switch cfg.Algo {
	case AlgoConstTime:
		p.be = newBackendConstTime[T, PT](p)
	default:
		p.be = newBackendFreelist[T, PT](p)
	}
	return p
}

// SetTelemetry attaches (or, with nil, detaches) striped CAS-retry
// counters recording at the sites named in Config. Safe to call while
// the pool is in use.
func (p *Pool[T, PT]) SetTelemetry(st *telemetry.Stripes) { p.tele.Store(st) }

// Algo returns the recycling backend this pool was built with.
func (p *Pool[T, PT]) Algo() Algo { return p.cfg.Algo }

// unpublishedError is the panic value of a Get for an index whose chunk
// has not been published: an index Alloc never produced. A typed value
// rather than a formatted string so that raising it costs Get no call
// and Get stays within the inliner's budget.
type unpublishedError uint64

func (e unpublishedError) Error() string {
	return fmt.Sprintf("pool: Get(%d): index in an unpublished chunk", uint64(e))
}

// chunkBase loads the table entry of idx's chunk: the address of the
// chunk's node 0, or nil if the chunk is not published. An index beyond
// the table fails the table's bounds check. (Masking the shift count
// tells the compiler it is below 64, which New guarantees.)
func (p *Pool[T, PT]) chunkBase(idx uint64) unsafe.Pointer {
	return atomic.LoadPointer(&p.chunks[idx>>(p.chunkLog&63)])
}

// nodeAt returns idx's node within the chunk that starts at base.
func (p *Pool[T, PT]) nodeAt(base unsafe.Pointer, idx uint64) PT {
	var zero T
	return PT(unsafe.Add(base, (idx&p.chunkMask)*uint64(unsafe.Sizeof(zero))))
}

// Get returns the node with the given index, which must have been
// produced by Alloc: one bounds-checked table load plus a masked offset.
func (p *Pool[T, PT]) Get(idx uint64) PT {
	base := p.chunkBase(idx)
	if base == nil {
		panic(unpublishedError(idx))
	}
	return p.nodeAt(base, idx)
}

// TryGet returns the node with the given index, or nil if the chunk
// holding it has not been published yet. grow advances the bump
// counter (and therefore Limit) by CAS before it builds and publishes
// the chunk, so a concurrent walker iterating [First, Limit) can
// observe an index whose chunk pointer is still nil; no node of such a
// chunk has ever been handed out, so skipping it is sound.
func (p *Pool[T, PT]) TryGet(idx uint64) PT {
	base := p.chunkBase(idx)
	if base == nil {
		return nil
	}
	return p.nodeAt(base, idx)
}

func (p *Pool[T, PT]) link(idx uint64) *atomic.Uint64 {
	return p.Get(idx).PoolNext()
}

func (p *Pool[T, PT]) retry(site telemetry.Site, key uint64) {
	if st := p.tele.Load(); st != nil {
		st.Retry(site, key)
	}
}

// Alloc pops a retired node from the caller's stripe (backend
// dependent: freelist pop + migration, or batch pop) or carves a fresh
// chunk (DescAlloc, Figure 7). stripe is any non-negative caller
// identity (typically a thread id); it is reduced modulo the stripe
// count. Lock-free; wait-free per-node for the constant-time backend.
func (p *Pool[T, PT]) Alloc(stripe int) (uint64, error) {
	return p.be.alloc(stripe)
}

// Retire pushes a node onto the caller's stripe (DescRetire, Figure 7).
// Lock-free; never fails.
func (p *Pool[T, PT]) Retire(stripe int, idx uint64) {
	p.be.retireChain(stripe, idx, idx, 1)
}

// RetireChain pushes the chain first..last (already linked node to
// node via packed link words, except last) of n nodes onto the
// caller's stripe. Lock-free.
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
// is a multiple of the cache line (core.Descriptor is exactly one), the
// allocator's size classes start it on a line boundary, so every node
// owns its lines and two threads working on neighbouring indices never
// share one; TestLineSizedNodesGetOwnLines pins that property.
func (p *Pool[T, PT]) grow() (uint64, error) {
	for {
		base := p.nextIdx.Load()
		ci := base >> p.chunkLog
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
		if !atomic.CompareAndSwapPointer(&p.chunks[ci], nil, unsafe.Pointer(unsafe.SliceData(s))) {
			panic("pool: chunk slot already populated")
		}
		return base, nil
	}
}

// popNode pops one node off a tagged freelist head, or reports the
// list empty. Shared by the freelist backend's stripes and the
// constant-time backend's overflow list.
func (p *Pool[T, PT]) popNode(s *stripe, site telemetry.Site) (uint64, bool) {
	for {
		oldHead := s.head.Load()
		h := atomicx.UnpackTagged(oldHead)
		if h.Idx == 0 {
			return 0, false
		}
		next := atomicx.UnpackTagged(p.link(h.Idx).Load()).Idx
		newHead := atomicx.Tagged{Idx: next, Tag: h.Tag + 1}.Pack()
		// The paper uses SafeCAS (hazard-pointer protected); the
		// tagged head provides the same ABA safety for index-addressed
		// nodes.
		if s.head.CompareAndSwap(oldHead, newHead) {
			return h.Idx, true
		}
		p.retry(site, h.Idx)
	}
}

// spliceChain links last to the head's current chain and installs
// first as the new head, bumping both tags; it does not touch the
// retired counter (migration moves chains that are already retired).
func (p *Pool[T, PT]) spliceChain(s *stripe, first, last uint64) {
	ln := p.link(last)
	for {
		oldHead := s.head.Load()
		h := atomicx.UnpackTagged(oldHead)
		old := atomicx.UnpackTagged(ln.Load())
		ln.Store(atomicx.Tagged{Idx: h.Idx, Tag: old.Tag + 1}.Pack())
		atomicx.Fence() // Figure 7 line 3
		newHead := atomicx.Tagged{Idx: first, Tag: h.Tag + 1}.Pack()
		if s.head.CompareAndSwap(oldHead, newHead) {
			return
		}
		p.retry(p.cfg.RetireSite, first)
	}
}

// chainWalk calls visit for each index of the chain starting at first,
// following packed link words, for at most n nodes.
func (p *Pool[T, PT]) chainWalk(first, n uint64, visit func(idx uint64)) {
	idx := first
	for i := uint64(0); i < n && idx != 0; i++ {
		next := atomicx.UnpackTagged(p.link(idx).Load()).Idx
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

// Stripes returns the number of freelist stripes (batch slots for the
// constant-time backend).
func (p *Pool[T, PT]) Stripes() int { return p.be.nstripes() }

// StripeFree returns the number of retired nodes per stripe. The walk
// races with concurrent Alloc/Retire (each step is bounded, so a torn
// snapshot can only mis-count, not loop); exact results need a
// quiescent pool. The constant-time backend reports nodes parked in
// each slot's private batches per stripe and attributes the shared
// full/partial stacks and the overflow list to stripe 0.
func (p *Pool[T, PT]) StripeFree() []uint64 { return p.be.stripeFree() }

// FreeIndices returns the set of node indices currently on freelists.
// Quiescent callers only (invariant checkers, tests).
func (p *Pool[T, PT]) FreeIndices() map[uint64]bool { return p.be.freeIndices() }
