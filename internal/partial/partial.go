// Package partial implements the lock-free lists of partial superblocks
// associated with each size class (paper §3.2.6).
//
// The paper describes two implementations and prefers the FIFO one: a
// version of the Michael–Scott lock-free FIFO queue [20] "with
// optimized memory management" — queue nodes are allocated from a
// private pool "in a manner similar but simpler than allocating
// descriptors", and ABA on the pointer-sized head/tail is prevented
// without a general-purpose allocator. This package reproduces that
// over the shared pool layer: nodes live at stable indices in an
// internal/pool chunked pool, head/tail/next are packed (index, tag)
// words, and freed nodes are recycled through the pool's tagged
// freelist. The LIFO alternative (an lfstack.Stack) is also provided
// for the ablation benchmark.
package partial

import (
	"sync/atomic"

	"repro/internal/lfstack"
	"repro/internal/pool"
	"repro/internal/telemetry"
)

// List is the interface shared by the FIFO and LIFO partial lists. It
// stores non-zero uint64 values (descriptor indices). All operations
// are lock-free.
type List interface {
	// Put inserts a descriptor index (ListPutPartial). The only error
	// is a wrapped pool.ErrExhausted when the node pool's chunk table
	// is full.
	Put(v uint64) error
	// Get removes and returns a descriptor index, or ok=false if the
	// list is observed empty (ListGetPartial).
	Get() (v uint64, ok bool)
	// Len returns an instantaneous (racy) size estimate.
	Len() int
	// Instrument attaches striped CAS-retry counters to Put/Get (nil
	// detaches). Safe to call while the list is in use.
	Instrument(st *telemetry.Stripes)
}

// DefaultNodes is the node capacity of NewFIFO and NewLIFO: one node per
// descriptor the core's descriptor table can hold.
const DefaultNodes = 1 << 24

type node struct {
	value atomic.Uint64
	next  atomic.Uint64 // packed (index, tag): queue link and pool freelist word
}

// PoolNext exposes the link word to the pool's freelist.
func (n *node) PoolNext() *atomic.Uint64 { return &n.next }

type nodePool = pool.Pool[node, *node]

// Nodes is a node pool that any number of lists draw from: a list
// created by its NewFIFO or NewLIFO holds nodes only while they carry
// values (plus a FIFO's one dummy), so lists whose values are bounded
// together — a descriptor sits in at most one size class's partial list
// at a time — share one bound and pay for one pool. Recycling a node
// from one list into another is as safe as into the same one: the tag
// that guards a link word belongs to the node, the tags on head and tail
// to the list.
type Nodes struct{ pool *nodePool }

// NewNodes builds a node pool that holds maxNodes rounded up to whole
// chunks, less one chunk, and at least 64 nodes: NewNodes(728) holds 704
// (chunks of 64), and a Put beyond that returns pool.ErrExhausted. A
// caller that knows how many values can exist at once — the core knows
// how many superblocks its heap has room for — passes that, with a
// chunk to spare, instead of paying for DefaultNodes worth of chunk
// table.
//
// A pool pays up front for the pool's table directory (8 bytes a leaf
// of 256 chunks) and, once a FIFO's dummy node forces it, one chunk of
// 64 nodes (16 bytes each) with its leaf: 13 KiB at 2^24 nodes. The
// first chunk of indices holds the reserved NULL index and is never
// materialized, so the usable capacity is one chunk less.
func NewNodes(maxNodes uint64) *Nodes {
	const chunkLog2 = 6
	return &Nodes{pool.New[node, *node](pool.Config{
		ChunkLog2: chunkLog2,
		MaxChunks: max((maxNodes+1<<chunkLog2-1)>>chunkLog2, 2),
	})}
}

// backend adapts the node pool to pool.Backend for the generic FIFO.
type backend struct{ p *nodePool }

func (b backend) AllocNode() (uint64, error)      { return b.p.Alloc(0) }
func (b backend) FreeNode(ref uint64)             { b.p.Retire(0, ref) }
func (b backend) LoadValue(ref uint64) uint64     { return b.p.Get(ref).value.Load() }
func (b backend) StoreValue(ref uint64, v uint64) { b.p.Get(ref).value.Store(v) }
func (b backend) LoadLink(ref uint64) uint64      { return b.p.Get(ref).next.Load() }
func (b backend) StoreLink(ref uint64, w uint64)  { b.p.Get(ref).next.Store(w) }
func (b backend) CASLink(ref uint64, old, new uint64) bool {
	return b.p.Get(ref).next.CompareAndSwap(old, new)
}

// FIFO is the Michael–Scott lock-free queue over the node pool: the
// paper's preferred partial-list structure, reducing contention and
// false sharing by spreading reuse over time.
type FIFO struct {
	pool *nodePool
	q    pool.FIFO[backend]
}

// Instrument implements List.
func (q *FIFO) Instrument(st *telemetry.Stripes) {
	q.q.Instrument(st, telemetry.SitePartialListPut, telemetry.SitePartialListGet)
}

// NewFIFO creates an empty FIFO list with a private node pool of
// DefaultNodes capacity.
func NewFIFO() *FIFO { return NewNodes(DefaultNodes).NewFIFO() }

// NewFIFO creates an empty FIFO list over the shared pool, taking its
// dummy node from it. It panics if the pool cannot supply one, which a
// pool sized for its lists' dummies cannot come to.
func (n *Nodes) NewFIFO() *FIFO {
	q := &FIFO{pool: n.pool}
	if err := q.q.Init(backend{q.pool}); err != nil {
		panic(err)
	}
	return q
}

// Put enqueues v at the tail (ListPutPartial).
func (q *FIFO) Put(v uint64) error {
	if v == 0 {
		panic("partial: Put(0)")
	}
	return q.q.Enqueue(backend{q.pool}, v)
}

// Get dequeues from the head (ListGetPartial).
func (q *FIFO) Get() (uint64, bool) { return q.q.Dequeue(backend{q.pool}) }

// Len returns a racy size estimate.
func (q *FIFO) Len() int { return q.q.Len() }

// LIFO is the Treiber-stack alternative partial list (the paper's
// simpler variant, kept for the FIFO-vs-LIFO ablation). Values are
// stored in pool nodes, linked through the node's pool link word, with
// a tagged head for ABA safety.
type LIFO struct {
	pool  *nodePool
	stack lfstack.Stack
	links lfstack.TagLinks
	size  atomic.Int64
	tele  atomic.Pointer[telemetry.Stripes]
}

// Instrument implements List.
func (s *LIFO) Instrument(st *telemetry.Stripes) { s.tele.Store(st) }

// NewLIFO creates an empty LIFO list with a private node pool of
// DefaultNodes capacity.
func NewLIFO() *LIFO { return NewNodes(DefaultNodes).NewLIFO() }

// NewLIFO creates an empty LIFO list over the shared pool.
func (n *Nodes) NewLIFO() *LIFO {
	s := &LIFO{pool: n.pool}
	s.links = func(idx uint64) *atomic.Uint64 { return &s.pool.Get(idx).next }
	return s
}

// retry records n failed CASes at site, if telemetry is attached.
func (s *LIFO) retry(site telemetry.Site, key uint64, n int) {
	if st := s.tele.Load(); st != nil {
		for ; n > 0; n-- {
			st.Retry(site, key)
		}
	}
}

// Put pushes v.
func (s *LIFO) Put(v uint64) error {
	if v == 0 {
		panic("partial: Put(0)")
	}
	n, err := s.pool.Alloc(0)
	if err != nil {
		return err
	}
	s.pool.Get(n).value.Store(v)
	s.retry(telemetry.SitePartialListPut, v, s.stack.Push(s.links, n, n))
	s.size.Add(1)
	return nil
}

// Get pops the most recently pushed value.
func (s *LIFO) Get() (uint64, bool) {
	n, fails := s.stack.Pop(s.links)
	s.retry(telemetry.SitePartialListGet, n, fails)
	if n == 0 {
		return 0, false
	}
	v := s.pool.Get(n).value.Load()
	s.pool.Retire(0, n)
	s.size.Add(-1)
	return v, true
}

// Len returns a racy size estimate.
func (s *LIFO) Len() int {
	n := s.size.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}
