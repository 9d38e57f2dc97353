package pool

// backendFreelist is the paper's Figure-7 recycling strategy: one
// freelist, DescAvail, threaded through the nodes' link words.
type backendFreelist[T any, PT interface {
	*T
	Node
}] struct {
	p     *Pool[T, PT]
	avail paddedStack
}

// alloc pops a retired node, or carves a fresh chunk when the list is
// empty (DescAlloc, Figure 7). Lock-free. Every caller shares the one
// head, so the caller's stripe is ignored.
func (b *backendFreelist[T, PT]) alloc(int) (uint64, error) {
	p := b.p
	for {
		if idx := p.popNode(&b.avail, p.cfg.AllocSite); idx != 0 {
			p.retired.Add(^uint64(0))
			return idx, nil
		}
		// Empty: allocate a node superblock (a chunk), take its first
		// node, and install the rest if the list is still empty. The
		// paper frees the chunk if another thread repopulated the list
		// first; table chunks cannot be unmapped, so on that race the
		// loser pushes its whole chain instead — a bounded
		// over-allocation noted in DESIGN.md.
		first, err := p.grow()
		if err != nil {
			return 0, err
		}
		last := first + p.chunkSize - 1
		if first == last {
			return first, nil // a one-node chunk has no remainder
		}
		if b.avail.Install(p.links, first+1, last) {
			p.retired.Add(p.chunkSize - 1)
			return first, nil
		}
		p.retry(p.cfg.AllocSite, first, 1)
		b.retireChain(0, first, last, p.chunkSize)
	}
}

// retireChain pushes the chain first..last of n nodes onto the list
// (DescRetire, Figure 7). Lock-free.
func (b *backendFreelist[T, PT]) retireChain(_ int, first, last, n uint64) {
	b.p.spliceChain(&b.avail, first, last)
	b.p.retired.Add(n)
}

// stripeFree counts the retired nodes by walking the list: one entry.
// See Pool.StripeFree for the consistency model: a walk error there is a
// torn chain, and the bounded count is the result.
func (b *backendFreelist[T, PT]) stripeFree() []uint64 {
	var n uint64
	_ = b.avail.Walk(b.p.links, b.p.Allocated(), func(uint64) { n++ })
	return []uint64{n}
}

// freeIndices calls add for each node index on the list. Quiescent
// callers only.
func (b *backendFreelist[T, PT]) freeIndices(add func(idx uint64)) error {
	return b.avail.Walk(b.p.links, b.p.Allocated(), add)
}
