// Package serial implements the single-global-lock baseline allocator,
// standing in for the default AIX 5.1 libc malloc of the paper's
// evaluation (§4): a conventional sequential boundary-tag allocator
// (best-fit over a size-keyed tree, in the spirit of the classic AIX
// Cartesian-tree malloc) made MT-safe by wrapping every operation in
// one mutex.
//
// Like the real libc baseline it has reasonable single-thread
// behaviour and collapses completely under concurrent load — the paper
// measures libc at 331x slower than the lock-free allocator at 16
// processors.
package serial

import (
	"sync"

	"repro/internal/chunkheap"
	"repro/internal/mem"
)

// largeThresholdWords is the direct-mmap threshold (32 KiB payload),
// comparable to dlmalloc's.
const largeThresholdWords = 4096

// Config configures the serial allocator.
type Config struct {
	HeapConfig mem.Config
}

// Allocator is the global-lock baseline. All methods are safe for
// concurrent use (they serialize on one mutex).
type Allocator struct {
	heap *mem.Heap

	mu sync.Mutex
	ch *chunkheap.Heap

	mallocs uint64
	frees   uint64
}

// New constructs a serial allocator.
func New(cfg Config) *Allocator {
	h := mem.NewHeap(cfg.HeapConfig)
	return &Allocator{
		heap: h,
		ch:   chunkheap.New(h, 0, chunkheap.BestFitTree),
	}
}

// Name identifies the allocator in benchmark output.
func (a *Allocator) Name() string { return "serial" }

// Heap returns the backing address space.
func (a *Allocator) Heap() *mem.Heap { return a.heap }

// Thread returns a handle; all handles share the global lock.
func (a *Allocator) Thread() *Thread { return &Thread{a: a} }

// Thread is a per-goroutine handle (stateless for this allocator).
type Thread struct{ a *Allocator }

// Malloc allocates size payload bytes.
func (t *Thread) Malloc(size uint64) (mem.Ptr, error) {
	a := t.a
	words := mem.PayloadWords(size)
	if words >= largeThresholdWords {
		// The header records the rounded region size for the free path.
		return a.heap.LargeAlloc(size, chunkheap.MakeLargeHeader)
	}
	a.mu.Lock()
	a.mallocs++
	p, err := a.ch.Alloc(words)
	a.mu.Unlock()
	return p, err
}

// Free returns a block to the chunk heap.
func (t *Thread) Free(p mem.Ptr) {
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
	a.frees++
	a.ch.Free(p)
	a.mu.Unlock()
}

// UsableWords returns the payload words available in the block at p
// (the malloc_usable_size analogue).
func (t *Thread) UsableWords(p mem.Ptr) uint64 {
	return chunkheap.UsableWords(t.a.heap, p)
}

// Counts returns total small mallocs and frees performed.
func (a *Allocator) Counts() (mallocs, frees uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.mallocs, a.frees
}
