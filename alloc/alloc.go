// Package alloc is the public API of the repository: a common interface
// over the lock-free allocator of Michael (PLDI 2004), the three
// baseline allocators the paper compares against (a serial global-lock
// allocator standing in for AIX libc malloc, a Hoard-like allocator,
// and a Ptmalloc-like arena allocator), the standalone boundary-tag
// chunk heap, and the non-blocking buddy allocator (Marotta et al.).
//
// All allocators operate on the simulated word-addressed heap of
// internal/mem (see DESIGN.md for why the address space is simulated):
//
//	a, err := alloc.New("lockfree", alloc.Options{Processors: 8})
//	t := a.NewThread()          // one handle per worker goroutine
//	p, err := t.Malloc(64)      // pointer to 64 payload bytes
//	h := a.Heap()
//	h.Set(p, 42)                // write the first payload word
//	t.Free(p)
package alloc

import (
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/shadow"
)

// Thread is a per-goroutine allocation handle. Handles are not safe
// for concurrent use; each worker goroutine should obtain its own,
// mirroring how each pthread has its own identity in the paper.
type Thread interface {
	// Malloc allocates a block with at least size payload bytes and
	// returns a pointer to the payload. The word preceding the payload
	// is the allocator's block prefix and must not be written. Any size
	// the backend cannot serve, 2^64-1 included, returns an error
	// wrapping mem.ErrOutOfMemory, never a smaller block.
	Malloc(size uint64) (mem.Ptr, error)
	// Free releases a block returned by any Thread of the same
	// Allocator (cross-thread free is allowed by all allocators here).
	Free(p mem.Ptr)
}

// Unregisterer is optionally implemented by Thread handles that hold
// per-thread state (the lock-free allocator's magazines, the offload
// worker's stash): Unregister returns the cached blocks to the shared
// structures. Call it when the owning goroutine stops using the handle;
// callers may type-assert and invoke it unconditionally.
type Unregisterer interface {
	Unregister()
}

// Allocator is the common interface satisfied by all six allocators.
type Allocator interface {
	// Name identifies the allocator in benchmark output
	// ("lockfree", "hoard", "ptmalloc", "serial", "chunkheap",
	// "buddy").
	Name() string
	// NewThread registers a worker and returns its handle.
	NewThread() Thread
	// Heap exposes the simulated address space for payload access.
	Heap() *mem.Heap
}

// Options configures allocator construction.
type Options struct {
	// Processors sizes per-processor structures (processor heaps for
	// lockfree and hoard; initial arenas for ptmalloc). 0 selects
	// GOMAXPROCS.
	Processors int
	// HeapConfig configures the simulated address space.
	HeapConfig mem.Config

	// LockFree carries lock-free-allocator-specific knobs (ablations);
	// Processors and HeapConfig above take precedence over the
	// corresponding fields. Its Telemetry recorder also receives the
	// buddy backend's CAS-retry sites.
	LockFree core.Config

	// Shadow wraps the allocator in a shadow-heap oracle
	// (internal/shadow) that mirrors every Malloc/Free into a reference
	// model and detects double-free, invalid free, overlap, and
	// write-after-free, for every backend and in every build. Unset,
	// no wrapper is installed and the oracle costs nothing. The wrapped
	// allocator is reached through HarnessOf (oracle verdict, hooked
	// threads, census, recorder), like a bare one.
	Shadow bool
	// ShadowConfig tunes the oracle: its violation handler. Name, Heap,
	// VerifyOnReuse, PrefixIgnoreMask and CrossCheck are set by the
	// constructor from the registry entry and ignored here.
	ShadowConfig shadow.Config
}
