package pool

import (
	"repro/internal/atomicx"
)

// backendFreelist is the paper's Figure-7 recycling strategy: one
// tagged Treiber freelist head, DescAvail, threaded through the nodes'
// link words.
type backendFreelist[T any, PT interface {
	*T
	Node
}] struct {
	p     *Pool[T, PT]
	avail stripe
}

// alloc pops a retired node, or carves a fresh chunk when the list is
// empty (DescAlloc, Figure 7). Lock-free. Every caller shares the one
// head, so the caller's stripe is ignored.
func (b *backendFreelist[T, PT]) alloc(int) (uint64, error) {
	p := b.p
	s := &b.avail
	for {
		oldHead := s.head.Load()
		h := atomicx.UnpackTagged(oldHead)
		if h.Idx != 0 {
			if idx, ok := p.popNode(s, p.cfg.AllocSite); ok {
				p.retired.Add(^uint64(0))
				return idx, nil
			}
			continue
		}
		// Empty: allocate a node superblock (a chunk), take its first
		// node, and install the rest. The paper frees the chunk if
		// another thread repopulated the freelist first (Figure 7 lines
		// 8-9); table chunks cannot be unmapped, so on that race the
		// loser pushes its whole chain instead — a bounded
		// over-allocation noted in DESIGN.md.
		first, err := p.grow()
		if err != nil {
			return 0, err
		}
		rest := atomicx.UnpackTagged(p.link(first).Load()).Idx
		atomicx.Fence() // Figure 7 line 7
		newHead := atomicx.Tagged{Idx: rest, Tag: h.Tag + 1}.Pack()
		if s.head.CompareAndSwap(oldHead, newHead) {
			p.retired.Add(p.chunkSize - 1) // the rest of the chunk is now available
			return first, nil
		}
		p.retry(p.cfg.AllocSite, first)
		b.retireChain(0, first, first+p.chunkSize-1, p.chunkSize)
	}
}

// retireChain pushes the chain first..last of n nodes onto the list
// (DescRetire, Figure 7). Lock-free.
func (b *backendFreelist[T, PT]) retireChain(_ int, first, last, n uint64) {
	b.p.spliceChain(&b.avail, first, last)
	b.p.retired.Add(n)
}

// stripeFree counts the retired nodes by walking the list: one entry.
// See Pool.StripeFree for the consistency model.
func (b *backendFreelist[T, PT]) stripeFree() []uint64 {
	p := b.p
	bound := p.Allocated()
	var n uint64
	for idx := atomicx.UnpackTagged(b.avail.head.Load()).Idx; idx != 0 && n < bound; n++ {
		idx = atomicx.UnpackTagged(p.link(idx).Load()).Idx
	}
	return []uint64{n}
}

// freeIndices collects the set of node indices on the list. Quiescent
// callers only.
func (b *backendFreelist[T, PT]) freeIndices() map[uint64]bool {
	p := b.p
	out := make(map[uint64]bool)
	bound := p.Allocated()
	idx := atomicx.UnpackTagged(b.avail.head.Load()).Idx
	for idx != 0 && uint64(len(out)) <= bound {
		out[idx] = true
		idx = atomicx.UnpackTagged(p.link(idx).Load()).Idx
	}
	return out
}
