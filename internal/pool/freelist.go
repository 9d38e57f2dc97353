package pool

import (
	"repro/internal/atomicx"
)

// backendFreelist is the paper's Figure-7 recycling strategy: striped
// tagged Treiber freelists threaded through the nodes' link words,
// with whole-chain migration serving dry stripes.
type backendFreelist[T any, PT interface {
	*T
	Node
}] struct {
	p       *Pool[T, PT]
	stripes []stripe
}

func newBackendFreelist[T any, PT interface {
	*T
	Node
}](p *Pool[T, PT]) *backendFreelist[T, PT] {
	return &backendFreelist[T, PT]{p: p, stripes: make([]stripe, p.cfg.Stripes)}
}

func (b *backendFreelist[T, PT]) nstripes() int { return len(b.stripes) }

func (b *backendFreelist[T, PT]) stripeFor(id int) int {
	return int(uint64(id) % uint64(len(b.stripes)))
}

// alloc pops a retired node from the caller's stripe, migrates a chain
// from a sibling stripe if the local one is dry, or carves a fresh
// chunk (DescAlloc, Figure 7). Lock-free.
func (b *backendFreelist[T, PT]) alloc(stripe int) (uint64, error) {
	p := b.p
	si := b.stripeFor(stripe)
	s := &b.stripes[si]
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
		if len(b.stripes) > 1 {
			if idx, ok := b.migrate(si); ok {
				return idx, nil
			}
		}
		// All stripes dry: allocate a node superblock (a chunk), take
		// its first node, and install the rest. The paper frees the
		// chunk if another thread repopulated the freelist first
		// (Figure 7 lines 8-9); table chunks cannot be unmapped, so on
		// that race the loser pushes its whole chain instead — a
		// bounded over-allocation noted in DESIGN.md.
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
		b.pushChain(s, first, first+p.chunkSize-1, p.chunkSize)
	}
}

// migrate serves a dry stripe by detaching a sibling's entire chain
// with one CAS. The CAS to (NULL, tag+1) makes the chain
// exclusively ours, so the walk to find its tail races with nothing;
// the first node is returned to the caller and the remainder spliced
// into the local stripe.
func (b *backendFreelist[T, PT]) migrate(local int) (uint64, bool) {
	p := b.p
	n := len(b.stripes)
	for off := 1; off < n; off++ {
		v := local + off
		if v >= n {
			v -= n
		}
		vs := &b.stripes[v]
		oldHead := vs.head.Load()
		h := atomicx.UnpackTagged(oldHead)
		if h.Idx == 0 {
			continue
		}
		if !vs.head.CompareAndSwap(oldHead, atomicx.Tagged{Idx: 0, Tag: h.Tag + 1}.Pack()) {
			// Contended victim: move on rather than spin on it.
			p.retry(p.cfg.AllocSite, h.Idx)
			continue
		}
		if migrateTestHook != nil {
			migrateTestHook(local, v)
		}
		if st := p.tele.Load(); st != nil {
			// An event count, not a CAS retry.
			st.Retry(p.cfg.MigrateSite, uint64(v))
		}
		first := h.Idx
		rest := atomicx.UnpackTagged(p.link(first).Load()).Idx
		if rest != 0 {
			last := rest
			for {
				nx := atomicx.UnpackTagged(p.link(last).Load()).Idx
				if nx == 0 {
					break
				}
				last = nx
			}
			// The migrated nodes stay retired; only the node handed to
			// the caller leaves the freelists, accounted below.
			p.spliceChain(&b.stripes[local], rest, last)
		}
		p.retired.Add(^uint64(0))
		return first, true
	}
	return 0, false
}

// retireChain pushes the chain first..last of n nodes onto the
// caller's stripe (DescRetire, Figure 7). Lock-free.
func (b *backendFreelist[T, PT]) retireChain(stripe int, first, last, n uint64) {
	b.pushChain(&b.stripes[b.stripeFor(stripe)], first, last, n)
}

func (b *backendFreelist[T, PT]) pushChain(s *stripe, first, last, n uint64) {
	b.p.spliceChain(s, first, last)
	b.p.retired.Add(n)
}

// stripeFree counts retired nodes on each stripe's freelist by walking
// the chains. See Pool.StripeFree for the consistency model.
func (b *backendFreelist[T, PT]) stripeFree() []uint64 {
	p := b.p
	out := make([]uint64, len(b.stripes))
	bound := p.Allocated()
	for i := range b.stripes {
		idx := atomicx.UnpackTagged(b.stripes[i].head.Load()).Idx
		var n uint64
		for idx != 0 && n < bound {
			n++
			idx = atomicx.UnpackTagged(p.link(idx).Load()).Idx
		}
		out[i] = n
	}
	return out
}

// freeIndices collects the set of node indices on the stripe
// freelists. Quiescent callers only.
func (b *backendFreelist[T, PT]) freeIndices() map[uint64]bool {
	p := b.p
	out := make(map[uint64]bool)
	bound := p.Allocated()
	for i := range b.stripes {
		idx := atomicx.UnpackTagged(b.stripes[i].head.Load()).Idx
		for idx != 0 && uint64(len(out)) <= bound {
			out[idx] = true
			idx = atomicx.UnpackTagged(p.link(idx).Load()).Idx
		}
	}
	return out
}
