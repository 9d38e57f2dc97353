// Package ptmalloc implements a Ptmalloc-like multi-arena lock-based
// baseline allocator (Gloger's ptmalloc2, the glibc allocator), the
// second comparison point of the paper (§2.2).
//
// Faithful elements: ptmalloc2 is dlmalloc per arena — each arena is a
// boundary-tag chunk heap (internal/chunkheap with the FastBins
// policy) guarded by one mutex; the locking granularity is the arena;
// a thread remembers the arena it used in its last malloc and tries
// that one first; if an arena is found locked the thread tries the
// next, and if all arenas are locked it creates a new arena and adds
// it to the arena list; free returns the block to the arena it was
// originally allocated from (identified by the owner tag in the chunk
// header), acquiring that arena's lock. A malloc/free pair thus costs
// two lock acquisitions, matching the paper's latency analysis.
//
// Large blocks go straight to the OS layer without any arena lock, as
// ptmalloc mmaps large requests.
package ptmalloc

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/chunkheap"
	"repro/internal/mem"
)

// maxArenas bounds arena creation (ptmalloc2 limits arenas to a small
// multiple of the core count; the paper observed 22 arenas for 16
// threads under Larson).
const maxArenas = 256

// largeThresholdWords is the direct-mmap threshold (32 KiB payload).
const largeThresholdWords = 4096

// Config configures the allocator.
type Config struct {
	// Arenas is the initial arena count. 0 selects GOMAXPROCS.
	Arenas     int
	HeapConfig mem.Config
}

type arena struct {
	mu sync.Mutex
	ch *chunkheap.Heap
	_  [4]uint64
}

// Allocator is the Ptmalloc-like baseline.
type Allocator struct {
	heap *mem.Heap

	arenas   atomic.Pointer[[]*arena] // append-only snapshot list
	arenasMu sync.Mutex

	nextThread atomic.Uint64
}

// New constructs the allocator.
func New(cfg Config) *Allocator {
	if cfg.Arenas <= 0 {
		cfg.Arenas = runtime.GOMAXPROCS(0)
	}
	if cfg.Arenas > maxArenas {
		cfg.Arenas = maxArenas
	}
	h := mem.NewHeap(cfg.HeapConfig)
	a := &Allocator{heap: h}
	arenas := make([]*arena, cfg.Arenas)
	for i := range arenas {
		arenas[i] = &arena{ch: chunkheap.New(h, uint64(i), chunkheap.FastBins)}
	}
	a.arenas.Store(&arenas)
	return a
}

// Name identifies the allocator in benchmark output.
func (a *Allocator) Name() string { return "ptmalloc" }

// Heap returns the backing address space.
func (a *Allocator) Heap() *mem.Heap { return a.heap }

// ArenaCount returns the current number of arenas (grows under
// contention, as the paper observed for Larson).
func (a *Allocator) ArenaCount() int { return len(*a.arenas.Load()) }

// Thread registers a worker and returns its handle.
func (a *Allocator) Thread() *Thread {
	t := &Thread{a: a}
	t.last = int(a.nextThread.Add(1)-1) % len(*a.arenas.Load())
	return t
}

// Thread is a per-goroutine handle carrying the thread-specific
// last-used-arena hint.
type Thread struct {
	a    *Allocator
	last int
}

// Malloc allocates size payload bytes.
func (t *Thread) Malloc(size uint64) (mem.Ptr, error) {
	a := t.a
	words := (size + mem.WordBytes - 1) / mem.WordBytes
	if words == 0 {
		words = 1
	}
	if words >= largeThresholdWords {
		// The header records the rounded region size for the free path.
		return a.heap.LargeAlloc(size, chunkheap.MakeLargeHeader)
	}
	arenas := *a.arenas.Load()
	// Try the last-used arena first, then the rest, with trylock.
	n := len(arenas)
	for i := 0; i < n; i++ {
		ai := (t.last + i) % n
		ar := arenas[ai]
		if ar.mu.TryLock() {
			p, err := ar.ch.Alloc(words)
			ar.mu.Unlock()
			t.last = ai
			return p, err
		}
	}
	// All arenas locked: create a new arena (ptmalloc's arena_get2).
	ai, ar := a.addArena()
	ar.mu.Lock()
	p, err := ar.ch.Alloc(words)
	ar.mu.Unlock()
	t.last = ai
	return p, err
}

func (a *Allocator) addArena() (int, *arena) {
	a.arenasMu.Lock()
	old := *a.arenas.Load()
	if len(old) >= maxArenas {
		a.arenasMu.Unlock()
		// At the cap, fall back to blocking on an existing arena.
		i := len(old) - 1
		return i, old[i]
	}
	ar := &arena{ch: chunkheap.New(a.heap, uint64(len(old)), chunkheap.FastBins)}
	grown := make([]*arena, len(old)+1)
	copy(grown, old)
	grown[len(old)] = ar
	a.arenas.Store(&grown)
	a.arenasMu.Unlock()
	return len(grown) - 1, ar
}

// UsableWords returns the payload words available in the block at p
// (the malloc_usable_size analogue).
func (t *Thread) UsableWords(p mem.Ptr) uint64 {
	return chunkheap.UsableWords(t.a.heap, p)
}

// Free returns a block to its origin arena, acquiring that arena's
// lock (blocking, as in ptmalloc).
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
	ai := chunkheap.Tag(a.heap, p)
	ar := (*a.arenas.Load())[ai]
	ar.mu.Lock()
	ar.ch.Free(p)
	ar.mu.Unlock()
}
