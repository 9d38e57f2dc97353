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
//	a := alloc.NewLockFree(alloc.Options{Processors: 8})
//	t := a.NewThread()          // one handle per worker goroutine
//	p, err := t.Malloc(64)      // pointer to 64 payload bytes
//	h := a.Heap()
//	h.Set(p, 42)                // write the first payload word
//	t.Free(p)
package alloc

import (
	"fmt"
	"sort"

	"repro/internal/baseline/hoard"
	"repro/internal/baseline/ptmalloc"
	"repro/internal/baseline/serial"
	"repro/internal/chunkheap"
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
	// is the allocator's block prefix and must not be written.
	Malloc(size uint64) (mem.Ptr, error)
	// Free releases a block returned by any Thread of the same
	// Allocator (cross-thread free is allowed by all allocators here).
	Free(p mem.Ptr)
}

// Unregisterer is optionally implemented by Thread handles that hold
// per-thread caches (the lock-free allocator's magazine layer):
// Unregister returns the cached blocks to the shared structures. Call
// it when the owning goroutine stops using the handle; it is a no-op
// when no cache is held, so callers may type-assert and invoke it
// unconditionally.
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
	// corresponding fields.
	LockFree core.Config

	// Shadow attaches a shadow-heap oracle (internal/shadow) that
	// mirrors every Malloc/Free into a reference model and detects
	// double-free, invalid free, overlap, and write-after-free. It only
	// takes effect when the binary is built with the `shadowheap` tag;
	// otherwise construction is unchanged and the oracle costs nothing.
	Shadow bool
	// ShadowConfig tunes the oracle (violation handler, telemetry
	// recorder for flight-recorder dumps, poison limits). Name, Heap,
	// VerifyOnReuse, and CrossCheck are set by the constructor and
	// ignored here.
	ShadowConfig shadow.Config
}

type lockFree struct{ a *core.Allocator }

func (w lockFree) Name() string      { return w.a.Name() }
func (w lockFree) NewThread() Thread { return w.a.Thread() }
func (w lockFree) Heap() *mem.Heap   { return w.a.Heap() }

// Core returns the underlying core allocator (for stats and tests).
func (w lockFree) Core() *core.Allocator { return w.a }

// ShadowOracle exposes the attached shadow oracle (nil unless built
// with the shadowheap tag and constructed with Options.Shadow).
func (w lockFree) ShadowOracle() *shadow.Oracle { return w.a.ShadowOracle() }

// CoreAccessor is implemented by the lock-free allocator wrapper to
// expose the underlying core.Allocator.
type CoreAccessor interface{ Core() *core.Allocator }

// lockFreeConfig resolves the core.Config NewLockFree builds from opt
// (before any shadow oracle is attached).
func lockFreeConfig(opt Options) core.Config {
	cfg := opt.LockFree
	if opt.Processors != 0 {
		cfg.Processors = opt.Processors
	}
	cfg.HeapConfig = opt.HeapConfig
	return cfg
}

// NewLockFree constructs the paper's lock-free allocator. Like
// core.New it normalises only zero values and panics on a
// configuration core.Config.Validate rejects; New returns that error
// instead.
func NewLockFree(opt Options) Allocator {
	cfg := lockFreeConfig(opt)
	if opt.Shadow && shadow.Enabled && cfg.Shadow == nil {
		// The oracle is integrated in the core (not wrapped around it)
		// so the magazine and kill-tolerance paths are mirrored too.
		// The core's free path keeps free-list links in the block
		// prefix, never the payload, so write-after-free verification
		// is sound.
		sc := opt.ShadowConfig
		sc.Name = "lockfree"
		sc.VerifyOnReuse = true
		sc.CrossCheck = true
		cfg.Shadow = shadow.New(sc)
	}
	return lockFree{core.New(cfg)}
}

type serialAlloc struct{ a *serial.Allocator }

func (w serialAlloc) Name() string      { return w.a.Name() }
func (w serialAlloc) NewThread() Thread { return w.a.Thread() }
func (w serialAlloc) Heap() *mem.Heap   { return w.a.Heap() }

// NewSerial constructs the single-global-lock baseline (the stand-in
// for the default libc malloc).
func NewSerial(opt Options) Allocator {
	a := serialAlloc{serial.New(serial.Config{HeapConfig: opt.HeapConfig})}
	// The best-fit tree threads child links through freed payloads, so
	// the oracle poisons but must not verify on reuse (verify=false).
	return shadowWrap(a, opt, false, chunkheap.MutableHeaderBits)
}

type hoardAlloc struct{ a *hoard.Allocator }

func (w hoardAlloc) Name() string      { return w.a.Name() }
func (w hoardAlloc) NewThread() Thread { return w.a.Thread() }
func (w hoardAlloc) Heap() *mem.Heap   { return w.a.Heap() }

// NewHoard constructs the Hoard-like lock-based baseline.
func NewHoard(opt Options) Allocator {
	a := hoardAlloc{hoard.New(hoard.Config{
		Processors: opt.Processors,
		HeapConfig: opt.HeapConfig,
	})}
	// Hoard's free lists link through the block prefix like the core,
	// so freed payloads stay poisoned and can be verified on reuse.
	return shadowWrap(a, opt, true, 0)
}

type ptmallocAlloc struct{ a *ptmalloc.Allocator }

func (w ptmallocAlloc) Name() string      { return w.a.Name() }
func (w ptmallocAlloc) NewThread() Thread { return w.a.Thread() }
func (w ptmallocAlloc) Heap() *mem.Heap   { return w.a.Heap() }

// NewPtmalloc constructs the Ptmalloc-like multi-arena baseline.
func NewPtmalloc(opt Options) Allocator {
	a := ptmallocAlloc{ptmalloc.New(ptmalloc.Config{
		Arenas:     opt.Processors,
		HeapConfig: opt.HeapConfig,
	})}
	// The chunk engine writes fd/bk bin links and boundary-tag footers
	// inside freed payloads, so reuse verification is off.
	return shadowWrap(a, opt, false, chunkheap.MutableHeaderBits)
}

// Names lists the registered allocator names in canonical benchmark
// order (the paper's: new allocator, Hoard, Ptmalloc, libc) plus the
// direct chunk-engine baseline and the non-blocking buddy system.
func Names() []string {
	return []string{"lockfree", "hoard", "ptmalloc", "serial", "chunkheap", "buddy"}
}

// New constructs an allocator by name. An invalid lock-free
// configuration (core.Config.Validate) is returned as an error.
func New(name string, opt Options) (Allocator, error) {
	switch name {
	case "lockfree", "new":
		if err := lockFreeConfig(opt).Validate(); err != nil {
			return nil, fmt.Errorf("alloc: %w", err)
		}
		return NewLockFree(opt), nil
	case "hoard":
		return NewHoard(opt), nil
	case "ptmalloc":
		return NewPtmalloc(opt), nil
	case "serial", "libc":
		return NewSerial(opt), nil
	case "chunkheap":
		return NewChunkHeap(opt), nil
	case "buddy":
		return NewBuddy(opt), nil
	}
	valid := Names()
	sort.Strings(valid)
	return nil, fmt.Errorf("alloc: unknown allocator %q (valid: %v)", name, valid)
}
