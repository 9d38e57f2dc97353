package pool

import (
	"sync/atomic"

	"repro/internal/lfstack"
)

// This file implements the Blelloch–Wei constant-time recycling
// backend ("Concurrent Fixed-Size Allocation and Free in Constant
// Time", PAPERS.md). The structure:
//
//   - Retired node indices are parked in fixed-size batches of
//     batchSize (= one table chunk) entries. A batch's contents are
//     only ever touched by one owner at a time.
//   - Each slot (stripe) holds up to two batches in cache-padded
//     atomic words, cur and spare. An operation privatizes a batch
//     with a single wait-free Swap(0) — claim — pops or pushes one
//     index with plain loads/stores, and parks it back with another
//     Swap. If the parking Swap displaces a batch some concurrent
//     sibling parked meanwhile, the displaced batch is disposed onto a
//     shared stack by fullness; nothing is lost and nobody retries.
//   - Three shared lfstack stacks (full, partial, empty) hold
//     batches no slot currently owns. The per-node hot path never
//     touches them; they are visited at most once per batchSize
//     operations (when a claimed batch runs dry or fills up), which is
//     what makes alloc/free O(1) shared-memory touches amortized and
//     CAS-retry-free per node.
//   - Space: each of the P slots pins at most two batches of B words
//     plus in-flight claims — the paper's O(P²) extra space for B≈P.
//   - A single overflow freelist (the same lfstack.Stack as the Figure-7
//     DescAvail list) is the correctness fallback for the bounded batch
//     table: if a retire cannot obtain an empty batch it pushes the
//     node there, and allocs drain it before growing. Free never fails.
//
// ABA safety: batches live at stable dense indices in a chunked table
// (like nodes) and stack heads/links are packed (index:40, tag:24)
// words (lfstack.TagLinks), the same wide-tag argument as the freelist
// backend.

// batchChunkLog2 is the log2 of batches per batch-table chunk.
const batchChunkLog2 = 6

// ctBatch is one batch: up to batchSize retired node indices. nodes is
// written only by the batch's exclusive owner (claimed via slot Swap
// or stack pop, so ownership transfer is an atomic release/acquire
// edge); n is atomic so racy census walks can read occupancy.
type ctBatch struct {
	next  atomic.Uint64 // packed (batch index, tag) shared-stack link (lfstack.TagLinks)
	n     atomic.Uint64 // occupancy in [0, batchSize]
	nodes []uint64
}

// ctSlot is one stripe's pair of batch words. 0 means "no batch";
// claiming is Swap(0), parking is Swap(bi) with displaced-batch
// disposal.
type ctSlot struct {
	cur   atomic.Uint64
	spare atomic.Uint64
	_     [6]uint64
}

type backendConstTime[T any, PT interface {
	*T
	Node
}] struct {
	p     *Pool[T, PT]
	slots []ctSlot
	links lfstack.TagLinks // the batches' shared-stack links

	full    paddedStack // batches with batchSize nodes
	partial paddedStack // batches with 1..batchSize-1 nodes
	empty   paddedStack // batches with 0 nodes

	overflow paddedStack // Figure-7 fallback when the batch table is capped

	batchChunks []atomic.Pointer[[]ctBatch]
	nextBatch   atomic.Uint64 // bump counter; batch index 0 reserved
	maxBatches  uint64
}

func newBackendConstTime[T any, PT interface {
	*T
	Node
}](p *Pool[T, PT]) *backendConstTime[T, PT] {
	// Full batches are bounded by the chunk count; non-full batches by
	// slot parking plus displacement races. The cap is generous (the
	// table is pointers, batches materialize lazily) and the overflow
	// list keeps a capped table correct anyway.
	maxBatches := 2*p.cfg.MaxChunks + 8*uint64(p.cfg.Stripes) + 64
	c := &backendConstTime[T, PT]{
		p:           p,
		slots:       make([]ctSlot, p.cfg.Stripes),
		batchChunks: make([]atomic.Pointer[[]ctBatch], (maxBatches>>batchChunkLog2)+1),
		maxBatches:  maxBatches,
	}
	c.links = func(bi uint64) *atomic.Uint64 { return &c.batch(bi).next }
	c.nextBatch.Store(1)
	return c
}

func (c *backendConstTime[T, PT]) slotFor(id int) int {
	return int(uint64(id) % uint64(len(c.slots)))
}

func (c *backendConstTime[T, PT]) batch(bi uint64) *ctBatch {
	cp := c.batchChunks[bi>>batchChunkLog2].Load()
	return &(*cp)[bi&(1<<batchChunkLog2-1)]
}

func (c *backendConstTime[T, PT]) count(bi uint64) uint64 {
	return c.batch(bi).n.Load()
}

// newBatch carves a fresh empty batch from the batch table, or returns
// 0 if the table is capped (callers fall back to the overflow list).
func (c *backendConstTime[T, PT]) newBatch() uint64 {
	for {
		bi := c.nextBatch.Load()
		if bi >= c.maxBatches {
			return 0
		}
		if !c.nextBatch.CompareAndSwap(bi, bi+1) {
			continue
		}
		ci := bi >> batchChunkLog2
		for c.batchChunks[ci].Load() == nil {
			s := make([]ctBatch, 1<<batchChunkLog2)
			c.batchChunks[ci].CompareAndSwap(nil, &s)
		}
		b := c.batch(bi)
		b.nodes = make([]uint64, c.p.chunkSize)
		return bi
	}
}

// pushStack pushes a batch onto a shared stack (the only CAS loops in
// this backend, with popStack; visited once per batchSize node
// operations).
func (c *backendConstTime[T, PT]) pushStack(st *paddedStack, bi uint64) {
	c.p.retry(c.p.cfg.RetireSite, bi, st.Push(c.links, bi, bi))
}

func (c *backendConstTime[T, PT]) popStack(st *paddedStack) uint64 {
	bi, fails := st.Pop(c.links)
	c.p.retry(c.p.cfg.AllocSite, bi, fails)
	return bi
}

// dispose files an unowned batch onto the stack matching its fullness.
func (c *backendConstTime[T, PT]) dispose(bi uint64) {
	switch n := c.count(bi); {
	case n == 0:
		c.pushStack(&c.empty, bi)
	case n == c.p.chunkSize:
		c.pushStack(&c.full, bi)
	default:
		c.pushStack(&c.partial, bi)
	}
}

// park installs a batch into a slot word; a batch displaced by the
// Swap (a concurrent sibling parked meanwhile) is disposed to the
// shared stacks. Wait-free.
func (c *backendConstTime[T, PT]) park(w *atomic.Uint64, bi uint64) {
	if old := w.Swap(bi); old != 0 {
		c.dispose(old)
	}
}

// raid claims a sibling slot's parked batch, so that nodes parked in
// another slot's private words don't strand the pool in premature
// exhaustion. Each probe is one wait-free Swap; empty claims are
// disposed to the empty stack, not dropped.
func (c *backendConstTime[T, PT]) raid(local int) uint64 {
	n := len(c.slots)
	for off := 1; off < n; off++ {
		v := local + off
		if v >= n {
			v -= n
		}
		for _, w := range []*atomic.Uint64{&c.slots[v].cur, &c.slots[v].spare} {
			bi := w.Swap(0)
			if bi == 0 {
				continue
			}
			if c.count(bi) > 0 {
				return bi
			}
			c.dispose(bi)
		}
	}
	return 0
}

// alloc pops one retired index. Fast path: one Swap to claim the
// slot's batch, a plain array pop, one Swap to park — no CAS, no
// retry. Slow path (claimed batch empty): consult the spare, then the
// shared full/partial stacks, then sibling slots, then the overflow
// list, then grow.
func (c *backendConstTime[T, PT]) alloc(stripe int) (uint64, error) {
	p := c.p
	si := c.slotFor(stripe)
	s := &c.slots[si]
	bi := s.cur.Swap(0)
	if bi == 0 || c.count(bi) == 0 {
		b2 := s.spare.Swap(0)
		if bi != 0 {
			// Park the dry batch as the spare: the next retire on this
			// slot fills it without touching the shared stacks.
			c.park(&s.spare, bi)
		}
		bi = b2
		if bi == 0 || c.count(bi) == 0 {
			if bi != 0 {
				c.dispose(bi)
			}
			bi = c.popStack(&c.full)
			if bi == 0 {
				bi = c.popStack(&c.partial)
			}
			if bi == 0 && len(c.slots) > 1 {
				bi = c.raid(si)
			}
			if bi != 0 {
				if st := p.tele.Load(); st != nil {
					// A batch handoff from another slot (event
					// count, not a retry).
					st.Retry(p.cfg.MigrateSite, bi)
				}
			} else {
				if idx := p.popNode(&c.overflow, p.cfg.AllocSite); idx != 0 {
					p.retired.Add(^uint64(0))
					return idx, nil
				}
				base, err := p.grow()
				if err != nil {
					return 0, err
				}
				bi = c.newBatch()
				if bi == 0 {
					// Batch table capped: serve the chunk's first node
					// and push the rest (pre-linked by grow) onto the
					// overflow list.
					if p.chunkSize > 1 {
						p.spliceChain(&c.overflow, base+1, base+p.chunkSize-1)
						p.retired.Add(p.chunkSize - 1)
					}
					return base, nil
				}
				b := c.batch(bi)
				for i := uint64(0); i < p.chunkSize; i++ {
					b.nodes[i] = base + i
				}
				b.n.Store(p.chunkSize)
				p.retired.Add(p.chunkSize)
			}
		}
	}
	b := c.batch(bi)
	n := b.n.Load()
	idx := b.nodes[n-1]
	b.n.Store(n - 1)
	c.park(&s.cur, bi)
	p.retired.Add(^uint64(0))
	return idx, nil
}

// retireOne parks one retired index. Fast path mirrors alloc: claim,
// plain array push, park. Slow path (claimed batch full): spare, then
// the shared empty/partial stacks, then a fresh batch, then the
// overflow list. Never fails.
func (c *backendConstTime[T, PT]) retireOne(stripe int, idx uint64) {
	p := c.p
	s := &c.slots[c.slotFor(stripe)]
	bi := s.cur.Swap(0)
	if bi == 0 || c.count(bi) == p.chunkSize {
		b2 := s.spare.Swap(0)
		if bi != 0 {
			// Park the full batch as the spare: the next alloc on this
			// slot drains it without touching the shared stacks.
			c.park(&s.spare, bi)
		}
		bi = b2
		if bi == 0 || c.count(bi) == p.chunkSize {
			if bi != 0 {
				c.dispose(bi)
			}
			bi = c.popStack(&c.empty)
			if bi == 0 {
				bi = c.popStack(&c.partial)
			}
			if bi == 0 {
				bi = c.newBatch()
			}
			if bi == 0 {
				// Batch table capped: fall back to the overflow list.
				p.spliceChain(&c.overflow, idx, idx)
				p.retired.Add(1)
				return
			}
		}
	}
	b := c.batch(bi)
	n := b.n.Load()
	b.nodes[n] = idx
	b.n.Store(n + 1)
	c.park(&s.cur, bi)
	p.retired.Add(1)
}

// retireChain walks the pre-linked chain and parks each node. The
// freelist backend splices a whole chain in one CAS; batches have no
// such shortcut, but chains only come from bulk client paths, never
// the per-node hot path.
func (c *backendConstTime[T, PT]) retireChain(stripe int, first, _, n uint64) {
	c.p.chainWalk(first, n, func(idx uint64) { c.retireOne(stripe, idx) })
}

// stackFree sums batch occupancy along one shared stack (racy walk,
// bounded by the number of batches ever created; an error is a torn
// chain, and the bounded sum is the result, as in stripeFree).
func (c *backendConstTime[T, PT]) stackFree(st *paddedStack) uint64 {
	var sum uint64
	_ = st.Walk(c.links, c.nextBatch.Load(), func(bi uint64) { sum += c.count(bi) })
	return sum
}

// stripeFree reports nodes parked in each slot's cur/spare batches,
// with the shared stacks and the overflow list attributed to stripe 0.
// See Pool.StripeFree for the consistency model: a walk error is a torn
// chain, and the bounded count is the result.
func (c *backendConstTime[T, PT]) stripeFree() []uint64 {
	p := c.p
	out := make([]uint64, len(c.slots))
	for i := range c.slots {
		if bi := c.slots[i].cur.Load(); bi != 0 {
			out[i] += c.count(bi)
		}
		if bi := c.slots[i].spare.Load(); bi != 0 {
			out[i] += c.count(bi)
		}
	}
	out[0] += c.stackFree(&c.full) + c.stackFree(&c.partial)
	_ = c.overflow.Walk(p.links, p.Allocated(), func(uint64) { out[0]++ })
	return out
}

// freeIndices calls add for every parked node index: slot batches, the
// shared stacks, and the overflow chain. Quiescent callers only.
func (c *backendConstTime[T, PT]) freeIndices(add func(idx uint64)) error {
	collect := func(bi uint64) {
		if bi == 0 {
			return
		}
		b := c.batch(bi)
		for i := uint64(0); i < b.n.Load(); i++ {
			add(b.nodes[i])
		}
	}
	for i := range c.slots {
		collect(c.slots[i].cur.Load())
		collect(c.slots[i].spare.Load())
	}
	total := c.nextBatch.Load()
	for _, st := range []*paddedStack{&c.full, &c.partial, &c.empty} {
		if err := st.Walk(c.links, total, collect); err != nil {
			return err
		}
	}
	return c.overflow.Walk(c.p.links, c.p.Allocated(), add)
}
