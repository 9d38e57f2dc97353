package alloc

import (
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/shadow"
)

// usableSizer is implemented by every Thread handle of a registered
// backend; the oracle needs the block's actual extent to model overlap
// and to poison exactly the payload.
type usableSizer interface{ UsableWords(p mem.Ptr) uint64 }

// shadowed wraps an allocator so every Malloc/Free is mirrored into a
// shadow oracle: the one way an oracle is attached, for all six
// backends. Mirroring outside the allocator is sound for the lock-free
// core's magazines and kill points too — a cached block's links live in
// its prefix, never the poisoned payload, and a thread killed inside
// Malloc or Free has either not reached NoteMalloc or already passed
// NoteFree, so a kill leaks a block but never desynchronizes the model.
type shadowed struct {
	inner  Allocator
	oracle *shadow.Oracle
	nextID atomic.Uint64
}

// shadowWrap attaches an oracle under this entry's policy to a freshly
// built allocator when Options.Shadow is set; otherwise it returns the
// allocator unchanged, with nothing of the oracle on its paths.
func (b *Backend) shadowWrap(a Allocator, opt Options) Allocator {
	if !opt.Shadow {
		return a
	}
	sc := opt.ShadowConfig
	sc.Name = b.Name
	sc.Heap = a.Heap()
	sc.VerifyOnReuse = b.VerifyOnReuse
	sc.PrefixIgnoreMask = b.PrefixIgnoreMask
	sc.CrossCheck = true
	return &shadowed{inner: a, oracle: shadow.New(sc)}
}

func (s *shadowed) Name() string    { return s.inner.Name() }
func (s *shadowed) Heap() *mem.Heap { return s.inner.Heap() }

func (s *shadowed) NewThread() Thread { return s.mirror(s.inner.NewThread()) }

// mirror wraps a handle of the inner allocator so its operations reach
// the oracle.
func (s *shadowed) mirror(inner Thread) Thread {
	return &shadowThread{
		inner:       inner,
		usableSizer: inner.(usableSizer),
		oracle:      s.oracle,
		id:          s.nextID.Add(1) - 1,
	}
}

// shadowThread mirrors one handle's operations into the oracle:
// mallocs after the operation (the block exists and cannot be handed
// out twice), frees before it (the prefix and payload are still
// intact, and an invalid free is swallowed so it cannot corrupt the
// allocator under test). UsableWords is the wrapped handle's own.
type shadowThread struct {
	inner Thread
	usableSizer
	oracle *shadow.Oracle
	id     uint64
}

func (t *shadowThread) Malloc(size uint64) (mem.Ptr, error) {
	p, err := t.inner.Malloc(size)
	if err == nil {
		t.oracle.NoteMalloc(t.id, p, size, t.UsableWords(p))
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
