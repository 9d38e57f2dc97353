package core

// Runtime-mutable allocator policy (Config.Adapt).
//
// The construction-time knobs — MagazineSize, the thread→stripe and
// thread→arena bindings — become runtime targets published through a
// small table of atomics. The publication protocol keeps the zero-atomic
// magazine hit paths intact:
//
//   - A writer (internal/adapt's controller, an operator via allocmon,
//     or a test) stores the new target values, then bumps the table's
//     seq epoch. Stores need no ordering among themselves: application
//     is idempotent, so a reader that catches values newer than the
//     epoch it observed simply re-applies them at the next bump.
//
//   - Each thread keeps an owner-only applied epoch. The top of malloc
//     compares it against the table epoch — on non-adaptive allocators
//     this is one never-taken nil-check branch (the same trick as the
//     sampler guard); on adaptive allocators one uncontended atomic
//     load — and calls the outlined applyPolicy only on a mismatch.
//
//   - applyPolicy runs between operations, never mid-CAS or mid-batch:
//     it re-homes the stripe and arena ids (safe because the pool
//     reduces ids modulo its stripe count and cross-stripe alloc/retire
//     mixing is harmless, and because arenas route frees by address, not
//     by binding), then walks the magazines, resetting cap/want and
//     incrementally flushing any magazine above its new cap — one
//     anchor CAS per superblock group, with the census mirror n updated
//     before each splice, so CheckInvariants and the census stay exact
//     at every hook point throughout a shrink.
//
// Magazine caps, per-class, live in the shared table (every thread gets
// the same target); stripe/arena targets are per-thread words on the
// threadPolicy. A target of -1 means "default": the construction-time
// MagazineSize, or the thread id binding.

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// MaxMagazineCap bounds SetMagazineCap: a sanity rail against a
// runaway controller requesting unbounded per-thread caching, not a
// tuning constant (the practical ceiling is memory blowup, cap ×
// classes × threads blocks).
const MaxMagazineCap = 1 << 12

// policyTable is the allocator-wide mutable policy: one per adaptive
// allocator, shared by all threads.
type policyTable struct {
	base    int            // construction-time Config.MagazineSize
	seq     atomic.Uint64  // epoch: bumped after every policy store
	magCaps []atomic.Int64 // per size class; -1 = base
}

func newPolicyTable(base, classes int) *policyTable {
	p := &policyTable{base: base, magCaps: make([]atomic.Int64, classes)}
	for i := range p.magCaps {
		p.magCaps[i].Store(-1)
	}
	return p
}

// capFor resolves the current magazine-cap target for one size class.
func (p *policyTable) capFor(cls int) int {
	if v := p.magCaps[cls].Load(); v >= 0 {
		return int(v)
	}
	return p.base
}

// threadPolicy is one thread's view of the policy layer: the shared
// table, the owner-only applied epoch, and the thread's own rebind
// targets.
type threadPolicy struct {
	table   *policyTable
	applied uint64 // epoch last applied; owner-only plain field

	stripeTarget atomic.Int64 // descriptor-pool stripe; -1 = thread id
	arenaTarget  atomic.Int64 // region arena; -1 = thread id

	// unregistered pins Unregister's release: applyPolicy must never
	// re-arm the magazines of a handle nobody will flush again.
	// Owner-only (Unregister, like Malloc/Free, is owner-called).
	unregistered bool
}

// applyPolicy pulls the thread's plain-field working state up to the
// published policy. Called by the owning thread between operations
// (malloc's policy poll); outlined so the poll itself stays a branch.
func (t *Thread) applyPolicy() {
	p := t.pol
	// Epoch first, values second: values published after this load are
	// newer than the recorded epoch, so the next bump re-applies them —
	// application is idempotent, nothing is lost.
	p.applied = p.table.seq.Load()
	if s := p.stripeTarget.Load(); s >= 0 {
		t.stripeID = int32(s)
	} else {
		t.stripeID = int32(t.id)
	}
	if id := p.arenaTarget.Load(); id >= 0 {
		t.arena = t.a.heap.Arena(int(id))
	} else {
		t.arena = t.a.heap.Arena(int(t.id))
	}
	if t.mags == nil || p.unregistered {
		return
	}
	maxCap := 0
	for cls := range t.mags {
		mag := &t.mags[cls]
		c := p.table.capFor(cls)
		if c != mag.cap {
			mag.cap = c
			mag.want = min(uint64(c/2)+1, t.a.maxCredits)
			if len(mag.blocks) > c {
				// Incremental shrink: return the excess to the shared
				// structures now (one splice per superblock group)
				// rather than waiting for the next put to trip the
				// watermark.
				t.flushMagazine(cls, c)
			}
		}
		if mag.cap > maxCap {
			maxCap = mag.cap
		}
	}
	t.magCap = int32(maxCap)
}

// Adaptive reports whether the allocator was built with Config.Adapt
// (i.e. whether the Set/Rebind policy surface below is live).
func (a *Allocator) Adaptive() bool { return a.pol != nil }

var errNotAdaptive = fmt.Errorf("core: allocator built without Config.Adapt")

// SetMagazineCap publishes a new magazine capacity target for one size
// class (or all classes when class < 0). cap 0 disables caching for the
// class; threads above a shrunken cap flush down to it at their next
// malloc. Callable from any goroutine; takes effect per thread at its
// next operation.
func (a *Allocator) SetMagazineCap(class, cap int) error {
	if a.pol == nil {
		return errNotAdaptive
	}
	if cap < 0 || cap > MaxMagazineCap {
		return fmt.Errorf("core: magazine cap %d out of range [0, %d]", cap, MaxMagazineCap)
	}
	if class >= len(a.pol.magCaps) {
		return fmt.Errorf("core: size class %d out of range [0, %d)", class, len(a.pol.magCaps))
	}
	if class < 0 {
		for i := range a.pol.magCaps {
			a.pol.magCaps[i].Store(int64(cap))
		}
	} else {
		a.pol.magCaps[class].Store(int64(cap))
	}
	a.pol.seq.Add(1)
	return nil
}

// MagazineCap returns the current capacity target for one size class:
// the published policy value on adaptive allocators, Config.MagazineSize
// otherwise.
func (a *Allocator) MagazineCap(class int) int {
	if a.pol == nil {
		return a.cfg.MagazineSize
	}
	return a.pol.capFor(class)
}

// MagazineCaps returns the capacity target of every size class.
func (a *Allocator) MagazineCaps() []int {
	caps := make([]int, len(a.classes))
	for i := range caps {
		caps[i] = a.MagazineCap(i)
	}
	return caps
}

// RebindStripe retargets one thread's descriptor-pool stripe. stripe -1
// restores the default (the thread id). The thread re-homes at its next
// malloc; the in-between window is safe because stripes only shard the
// freelist — any thread may allocate from and retire to any stripe.
func (a *Allocator) RebindStripe(thread uint64, stripe int) error {
	if a.pol == nil {
		return errNotAdaptive
	}
	if stripe < -1 || stripe >= a.descs.Stripes() {
		return fmt.Errorf("core: stripe %d out of range [0, %d)", stripe, a.descs.Stripes())
	}
	t := a.threadByID(thread)
	if t == nil {
		return fmt.Errorf("core: no thread with id %d", thread)
	}
	t.pol.stripeTarget.Store(int64(stripe))
	a.pol.seq.Add(1)
	return nil
}

// RebindArena retargets one thread's region arena (superblock and
// large-block allocation locality). arena -1 restores the default (the
// thread id). Safe at any point: frees route to the arena owning the
// address, regardless of any thread's current binding.
func (a *Allocator) RebindArena(thread uint64, arena int) error {
	if a.pol == nil {
		return errNotAdaptive
	}
	if arena < -1 || arena >= a.heap.Arenas() {
		return fmt.Errorf("core: arena %d out of range [0, %d)", arena, a.heap.Arenas())
	}
	t := a.threadByID(thread)
	if t == nil {
		return fmt.Errorf("core: no thread with id %d", thread)
	}
	t.pol.arenaTarget.Store(int64(arena))
	a.pol.seq.Add(1)
	return nil
}

func (a *Allocator) threadByID(id uint64) *Thread {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, t := range a.threads {
		if t.id == id {
			return t
		}
	}
	return nil
}

// ThreadBinding is one thread's current policy targets, as published
// (what the thread will be bound to at its next operation).
type ThreadBinding struct {
	ID     uint64
	Stripe int
	Arena  int
}

// ThreadBindings reports every registered thread's stripe and arena
// targets. It reads the published atomic targets, not the threads'
// plain working fields, so it is safe while workers run; unset targets
// report the default binding (thread id reduced modulo the stripe or
// arena count).
func (a *Allocator) ThreadBindings() []ThreadBinding {
	stripes, arenas := a.descs.Stripes(), a.heap.Arenas()
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]ThreadBinding, 0, len(a.threads))
	for _, t := range a.threads {
		b := ThreadBinding{ID: t.id, Stripe: int(t.id) % stripes, Arena: int(t.id) % arenas}
		if t.pol != nil {
			if s := t.pol.stripeTarget.Load(); s >= 0 {
				b.Stripe = int(s)
			}
			if id := t.pol.arenaTarget.Load(); id >= 0 {
				b.Arena = int(id)
			}
		}
		out = append(out, b)
	}
	return out
}

// The hot-path layout argument (DESIGN.md, PR 4) depends on Allocator
// and Thread filling the 256-byte size class exactly; a field added
// outside the padding budget would silently shift the hot cache lines.
// Descriptor and ProcHeap are each exactly one 64-byte line (DESIGN.md,
// "Memory layout"): a ninth descriptor word would put neighbouring
// superblocks' Anchor words back on shared lines. Two-sided compile-time
// assertions: either direction overflowing makes the constant negative.
const (
	_ = 256 - unsafe.Sizeof(Allocator{})
	_ = unsafe.Sizeof(Allocator{}) - 256
	_ = 256 - unsafe.Sizeof(Thread{})
	_ = unsafe.Sizeof(Thread{}) - 256
	_ = cacheLine - unsafe.Sizeof(Descriptor{})
	_ = unsafe.Sizeof(Descriptor{}) - cacheLine
	_ = cacheLine - unsafe.Sizeof(ProcHeap{})
	_ = unsafe.Sizeof(ProcHeap{}) - cacheLine
)

// cacheLine is the coherence granule the layout is built around.
const cacheLine = 64
