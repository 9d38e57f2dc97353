package alloc

import (
	"sync"

	"repro/internal/chunkheap"
	"repro/internal/mem"
)

// chunkLargeThresholdWords is the direct-OS threshold (32 KiB payload),
// matching the serial and ptmalloc baselines so the five allocators
// agree on where the small/large boundary sits.
const chunkLargeThresholdWords = 4096

// chunkAlloc exposes the sequential chunkheap engine
// (internal/chunkheap, the dlmalloc-style boundary-tag heap underlying
// the serial and ptmalloc baselines) directly as a fifth allocator: one
// FastBins chunk heap behind one mutex. It exists for differential
// testing — bugs in the chunk engine surface here without the arena
// rotation (ptmalloc) or best-fit tree (serial) in front of them — and
// as the single-lock/FastBins point in the baseline grid.
type chunkAlloc struct {
	heap *mem.Heap

	mu sync.Mutex
	ch *chunkheap.Heap
}

// newChunkHeap constructs the direct chunkheap allocator.
func newChunkHeap(opt Options) *chunkAlloc {
	h := mem.NewHeap(opt.HeapConfig)
	return &chunkAlloc{heap: h, ch: chunkheap.New(h, 0, chunkheap.FastBins)}
}

func (a *chunkAlloc) Name() string      { return "chunkheap" }
func (a *chunkAlloc) Heap() *mem.Heap   { return a.heap }
func (a *chunkAlloc) NewThread() Thread { return &chunkThread{a: a} }

// chunkThread is a per-goroutine handle (stateless; all handles share
// the one lock).
type chunkThread struct{ a *chunkAlloc }

// Malloc allocates size payload bytes.
func (t *chunkThread) Malloc(size uint64) (mem.Ptr, error) {
	a := t.a
	words := mem.PayloadWords(size)
	if words >= chunkLargeThresholdWords {
		// The header records the rounded region size for the free path.
		return a.heap.LargeAlloc(size, chunkheap.MakeLargeHeader)
	}
	a.mu.Lock()
	p, err := a.ch.Alloc(words)
	a.mu.Unlock()
	return p, err
}

// Free returns a block to the chunk heap.
func (t *chunkThread) Free(p mem.Ptr) {
	if p.IsNil() {
		return
	}
	a := t.a
	hdr := a.heap.Load(p - 1)
	if chunkheap.IsLargeHeader(hdr) {
		a.heap.LargeFree(p, chunkheap.LargeWords(hdr))
		return
	}
	a.mu.Lock()
	a.ch.Free(p)
	a.mu.Unlock()
}

// UsableWords returns the payload words available in the block at p
// (the malloc_usable_size analogue).
func (t *chunkThread) UsableWords(p mem.Ptr) uint64 {
	return chunkheap.UsableWords(t.a.heap, p)
}
