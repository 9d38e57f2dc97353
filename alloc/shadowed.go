package alloc

import (
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/shadow"
)

// ShadowAccessor is implemented by allocators constructed with
// Options.Shadow: it exposes the attached shadow-heap oracle so tests
// and harnesses can collect its verdict (Err, Violations). It returns
// nil when the oracle is compiled out (no `shadowheap` build tag).
type ShadowAccessor interface{ ShadowOracle() *shadow.Oracle }

// usableSizer is implemented by every Thread handle in this repository;
// the oracle needs the block's actual extent to model overlap and to
// poison exactly the payload.
type usableSizer interface{ UsableWords(p mem.Ptr) uint64 }

// shadowed wraps a baseline allocator so every Malloc/Free is mirrored
// into a shadow oracle. The lock-free allocator is not wrapped — its
// core integrates the oracle directly (core.Config.Shadow), which also
// covers the magazine and kill-tolerance paths.
type shadowed struct {
	inner  Allocator
	oracle *shadow.Oracle
	nextID atomic.Uint64
}

// shadowWrap attaches an oracle to a freshly built allocator of this
// entry when Options.Shadow is set and the shadowheap build tag is
// active; otherwise (or when the backend integrated the oracle itself,
// as the lock-free core does) it returns the allocator unchanged.
func (b *Backend) shadowWrap(a Allocator, opt Options) Allocator {
	if _, integrated := a.(ShadowAccessor); integrated || !wantOracle(opt) {
		return a
	}
	return &shadowed{inner: a, oracle: b.oracle(opt, a.Heap())}
}

func (s *shadowed) Name() string                 { return s.inner.Name() }
func (s *shadowed) Heap() *mem.Heap              { return s.inner.Heap() }
func (s *shadowed) ShadowOracle() *shadow.Oracle { return s.oracle }

func (s *shadowed) NewThread() Thread { return s.mirror(s.inner.NewThread()) }

// mirror wraps a handle of the inner allocator so its operations reach
// the oracle.
func (s *shadowed) mirror(inner Thread) Thread {
	t := &shadowThread{
		inner:  inner,
		oracle: s.oracle,
		id:     s.nextID.Add(1) - 1,
	}
	t.sizer, _ = inner.(usableSizer)
	return t
}

// shadowThread mirrors one handle's operations into the oracle:
// mallocs after the operation (the block exists and cannot be handed
// out twice), frees before it (the prefix and payload are still
// intact, and an invalid free is swallowed so it cannot corrupt the
// allocator under test).
type shadowThread struct {
	inner  Thread
	oracle *shadow.Oracle
	sizer  usableSizer
	id     uint64
}

func (t *shadowThread) Malloc(size uint64) (mem.Ptr, error) {
	p, err := t.inner.Malloc(size)
	if err == nil {
		usable := (size + mem.WordBytes - 1) / mem.WordBytes
		if t.sizer != nil {
			usable = t.sizer.UsableWords(p)
		}
		t.oracle.NoteMalloc(t.id, p, size, usable)
	}
	return p, err
}

func (t *shadowThread) Free(p mem.Ptr) {
	if !t.oracle.NoteFree(t.id, p) {
		return
	}
	t.inner.Free(p)
}

// Unregister forwards to the wrapped handle when it holds per-thread
// caches.
func (t *shadowThread) Unregister() {
	if u, ok := t.inner.(Unregisterer); ok {
		u.Unregister()
	}
}
