package alloc_test

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/alloc"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/shadow"
)

type violations struct {
	mu sync.Mutex
	vs []shadow.Violation
}

func (c *violations) add(v shadow.Violation) {
	c.mu.Lock()
	c.vs = append(c.vs, v)
	c.mu.Unlock()
}

func (c *violations) all() []shadow.Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]shadow.Violation(nil), c.vs...)
}

// newShadowed builds an allocator with a collecting oracle attached,
// closing the oracle (deregistering it from the cross-allocator
// registry) when the test ends.
func newShadowed(t *testing.T, name string, opt alloc.Options) (alloc.Allocator, *violations) {
	t.Helper()
	c := &violations{}
	opt.Shadow = true
	opt.ShadowConfig = shadow.Config{OnViolation: c.add}
	a, err := alloc.New(name, opt)
	if err != nil {
		t.Fatalf("New(%q): %v", name, err)
	}
	o := alloc.HarnessOf(a).Oracle()
	if o == nil {
		t.Fatalf("%q: no oracle despite Options.Shadow", name)
	}
	t.Cleanup(o.Close)
	return a, c
}

// TestOracleEveryBackend walks the registry: whichever backend sits
// behind alloc.New, the oracle reports a double free, an interior free
// and a cross-allocator free with attribution and swallows them, and
// where the entry allows reuse verification a write into a freed block
// — for the lock-free allocator while the block sits in a magazine.
func TestOracleEveryBackend(t *testing.T) {
	backends := alloc.Backends()
	for i, b := range backends {
		t.Run(b.Name, func(t *testing.T) {
			opt := alloc.Options{Processors: 2, LockFree: core.Config{MagazineSize: 8}}
			a, c := newShadowed(t, b.Name, opt)
			t0, t1 := a.NewThread(), a.NewThread() // oracle thread ids 0 and 1
			one := func(kind shadow.Kind) shadow.Violation {
				t.Helper()
				vs := c.all()
				if len(vs) == 0 || vs[len(vs)-1].Kind != kind {
					t.Fatalf("violations = %v, want a trailing %v", vs, kind)
				}
				if vs[len(vs)-1].Allocator != b.Name {
					t.Fatalf("violation names allocator %q, want %q", vs[len(vs)-1].Allocator, b.Name)
				}
				return vs[len(vs)-1]
			}

			p, err := t0.Malloc(64)
			if err != nil {
				t.Fatal(err)
			}
			t1.Free(p.Add(3))
			if v := one(shadow.KindInteriorFree); v.Ptr != p.Add(3) || v.Thread != 1 || v.AllocThread != 0 {
				t.Errorf("interior free attributed to op %d / alloc %d at %v: %v", v.Thread, v.AllocThread, v.Ptr, v)
			}
			t1.Free(p)
			t0.Free(p)
			if v := one(shadow.KindDoubleFree); v.Ptr != p || v.Thread != 0 || v.AllocThread != 0 || v.FreeThread != 1 {
				t.Errorf("double free attributed to op %d / alloc %d / free %d: %v", v.Thread, v.AllocThread, v.FreeThread, v)
			}

			// A block live in a different backend's allocator, freed here.
			owner := backends[(i+1)%len(backends)]
			oa, oc := newShadowed(t, owner.Name, opt)
			ot := oa.NewThread()
			// Every allocator's heap starts at the same address: a large
			// block behind a larger one lies beyond anything this
			// allocator's model has seen.
			pad, err := ot.Malloc(1 << 20)
			if err != nil {
				t.Fatal(err)
			}
			defer ot.Free(pad)
			q, err := ot.Malloc(1 << 16)
			if err != nil {
				t.Fatal(err)
			}
			t0.Free(q)
			if v := one(shadow.KindCrossAllocatorFree); v.Ptr != q || !strings.Contains(v.Detail, strconv.Quote(owner.Name)) {
				t.Errorf("cross-allocator free does not name owner %q: %v", owner.Name, v)
			}
			ot.Free(q)
			if vs := oc.all(); len(vs) != 0 {
				t.Errorf("owner %s flagged: %v", owner.Name, vs)
			}

			if b.VerifyOnReuse {
				n := len(c.all())
				p, err := t0.Malloc(64)
				if err != nil {
					t.Fatal(err)
				}
				t0.Free(p) // poisoned; lockfree: cached in t0's magazine
				a.Heap().Set(p.Add(2), 0xb)
				// Reuse is LIFO on both verifying backends; allow a few
				// attempts in case a refill batch reorders it.
				for j := 0; j < 64 && len(c.all()) == n; j++ {
					r, err := t0.Malloc(64)
					if err != nil {
						t.Fatal(err)
					}
					defer t0.Free(r)
				}
				if v := one(shadow.KindWriteAfterFree); v.Ptr != p || v.AllocThread != 0 || v.FreeThread != 0 {
					t.Errorf("write-after-free attribution: %v", v)
				}
			}
			// Everything invalid was swallowed: the allocator still works.
			n := len(c.all())
			r, err := t1.Malloc(64)
			if err != nil {
				t.Fatalf("malloc after the violations: %v", err)
			}
			t1.Free(r)
			if vs := c.all(); len(vs) != n {
				t.Errorf("valid traffic flagged: %v", vs[n:])
			}
		})
	}
}

// TestShadowDoubleFreeAllAllocators drives a deliberate double free
// through every registered allocator and requires the oracle to detect
// it, swallow it, and leave the allocator usable.
func TestShadowDoubleFreeAllAllocators(t *testing.T) {
	for _, name := range alloc.Names() {
		t.Run(name, func(t *testing.T) {
			a, c := newShadowed(t, name, alloc.Options{Processors: 2})
			th := a.NewThread()
			p, err := th.Malloc(64)
			if err != nil {
				t.Fatalf("malloc: %v", err)
			}
			th.Free(p)
			th.Free(p) // the bug
			vs := c.all()
			if len(vs) != 1 || vs[0].Kind != shadow.KindDoubleFree {
				t.Fatalf("violations = %v, want one double-free", vs)
			}
			if vs[0].Ptr != p {
				t.Fatalf("violation at %v, want %v", vs[0].Ptr, p)
			}
			// The invalid free was swallowed: the allocator still works.
			q, err := th.Malloc(64)
			if err != nil {
				t.Fatalf("malloc after double free: %v", err)
			}
			th.Free(q)
			if got := c.all(); len(got) != 1 {
				t.Fatalf("extra violations after recovery: %v", got[1:])
			}
		})
	}
}

// TestShadowDoubleFreeAttributionLockfree is the acceptance scenario:
// lockfree with magazines enabled, a block allocated
// on one thread and double-freed on another, with both thread ids
// attributed.
func TestShadowDoubleFreeAttributionLockfree(t *testing.T) {
	a, c := newShadowed(t, "lockfree", alloc.Options{
		Processors: 2,
		LockFree:   core.Config{MagazineSize: 8},
	})
	t1 := a.NewThread() // oracle thread id 0
	t2 := a.NewThread() // oracle thread id 1
	p, err := t1.Malloc(48)
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	t2.Free(p)
	t2.Free(p)
	vs := c.all()
	if len(vs) != 1 || vs[0].Kind != shadow.KindDoubleFree {
		t.Fatalf("violations = %v, want one double-free", vs)
	}
	v := vs[0]
	if v.AllocThread != 0 || v.FreeThread != 1 || v.Thread != 1 {
		t.Fatalf("attribution = alloc %d / free %d / op %d, want 0/1/1 (%v)",
			v.AllocThread, v.FreeThread, v.Thread, v)
	}
}

// TestShadowWriteAfterFreeLockfree is the second acceptance scenario:
// with magazines on, a write into a freed block's payload is
// caught when the block is reused, attributed to the allocating and
// freeing threads.
func TestShadowWriteAfterFreeLockfree(t *testing.T) {
	a, c := newShadowed(t, "lockfree", alloc.Options{
		Processors: 2,
		LockFree:   core.Config{MagazineSize: 8},
	})
	th := a.NewThread() // oracle thread id 0
	p, err := th.Malloc(64)
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	th.Free(p)                  // payload now poisoned, block magazine-cached
	a.Heap().Set(p.Add(2), 0xb) // the write-after-free
	// The magazine is LIFO, so the clobbered block comes back first;
	// allow a few attempts in case a refill batch reorders it.
	for i := 0; i < 64 && len(c.all()) == 0; i++ {
		q, err := th.Malloc(64)
		if err != nil {
			t.Fatalf("malloc: %v", err)
		}
		defer th.Free(q)
	}
	vs := c.all()
	if len(vs) == 0 {
		t.Fatal("write-after-free not detected on reuse")
	}
	v := vs[0]
	if v.Kind != shadow.KindWriteAfterFree {
		t.Fatalf("violation = %v, want write-after-free", v)
	}
	if v.Ptr != p || v.AllocThread != 0 || v.FreeThread != 0 {
		t.Fatalf("attribution wrong: %+v", v)
	}
}

// TestShadowCrossAllocatorFree frees a block through the wrong
// allocator and requires the oracle to name the owner.
func TestShadowCrossAllocatorFree(t *testing.T) {
	a, ca := newShadowed(t, "lockfree", alloc.Options{Processors: 2})
	b, cb := newShadowed(t, "hoard", alloc.Options{Processors: 2})
	ta, tb := a.NewThread(), b.NewThread()
	p, err := ta.Malloc(64)
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	tb.Free(p)
	vs := cb.all()
	if len(vs) != 1 || vs[0].Kind != shadow.KindCrossAllocatorFree {
		t.Fatalf("violations = %v, want one cross-allocator free", vs)
	}
	if len(ca.all()) != 0 {
		t.Fatalf("owning allocator flagged: %v", ca.all())
	}
	ta.Free(p) // the rightful free still works
	if len(ca.all()) != 0 {
		t.Fatalf("rightful free flagged: %v", ca.all())
	}
}

// TestShadowCleanChurn runs ordinary traffic on every allocator under
// the oracle: no false positives, and the model drains to zero.
func TestShadowCleanChurn(t *testing.T) {
	for _, name := range alloc.Names() {
		t.Run(name, func(t *testing.T) {
			a, c := newShadowed(t, name, alloc.Options{Processors: 2})
			th := a.NewThread()
			var held []mem.Ptr
			for i := 0; i < 400; i++ {
				sz := uint64(8 << (i % 9))
				if i%37 == 0 {
					sz = 3000 + uint64(i)*13 // large path
				}
				p, err := th.Malloc(sz)
				if err != nil {
					t.Fatalf("malloc(%d): %v", sz, err)
				}
				held = append(held, p)
				if len(held) > 16 {
					th.Free(held[0])
					held = held[1:]
				}
			}
			for _, p := range held {
				th.Free(p)
			}
			if u, ok := th.(alloc.Unregisterer); ok {
				u.Unregister()
			}
			if vs := c.all(); len(vs) != 0 {
				t.Fatalf("clean churn flagged: %v", vs)
			}
			if n := alloc.HarnessOf(a).Oracle().LiveBlocks(); n != 0 {
				t.Fatalf("%d blocks still modeled live after freeing all", n)
			}
		})
	}
}

// TestShadowMagazineRoundTrip churns blocks through the magazine layer
// (free into magazine, reuse from magazine, flush, batch refill) under
// the oracle: no false positives, and the model drains to zero.
func TestShadowMagazineRoundTrip(t *testing.T) {
	a, c := newShadowed(t, "lockfree", alloc.Options{Processors: 2, LockFree: core.Config{MagazineSize: 8}})
	h := alloc.HarnessOf(a)
	th := a.NewThread()
	var held []mem.Ptr
	for i := 0; i < 3000; i++ {
		sz := uint64(8 << (i % 9))
		if i%53 == 0 {
			sz = 4096 + uint64(i) // large path, straight to the region layer
		}
		p, err := th.Malloc(sz)
		if err != nil {
			t.Fatalf("malloc(%d): %v", sz, err)
		}
		held = append(held, p)
		if len(held) > 24 {
			th.Free(held[0])
			held = held[1:]
		}
	}
	for _, p := range held {
		th.Free(p)
	}
	th.(alloc.Unregisterer).Unregister()
	if vs := c.all(); len(vs) != 0 {
		t.Fatalf("clean magazine churn flagged: %v", vs[0])
	}
	if n := h.Oracle().LiveBlocks(); n != 0 {
		t.Fatalf("%d blocks still modeled live", n)
	}
	if err := h.Inspect(0).InvariantErr; err != nil {
		t.Fatalf("invariants after churn: %v", err)
	}
}

// TestShadowDoubleFreeThroughMagazine double-frees a block that is
// sitting in a magazine: the oracle must flag it and swallow it before
// the magazine caches the same pointer twice.
func TestShadowDoubleFreeThroughMagazine(t *testing.T) {
	a, c := newShadowed(t, "lockfree", alloc.Options{Processors: 1, LockFree: core.Config{MagazineSize: 8}})
	th := a.NewThread()
	p, err := th.Malloc(64)
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	th.Free(p) // now magazine-cached
	th.Free(p) // double free while cached
	vs := c.all()
	if len(vs) != 1 || vs[0].Kind != shadow.KindDoubleFree {
		t.Fatalf("violations = %v, want one double-free", vs)
	}
	// The magazine must not contain the pointer twice: two mallocs of
	// the class must return distinct addresses.
	q1, err := th.Malloc(64)
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	q2, err := th.Malloc(64)
	if err != nil {
		t.Fatalf("malloc: %v", err)
	}
	if q1 == q2 {
		t.Fatalf("same pointer handed out twice after swallowed double free")
	}
	th.Free(q1)
	th.Free(q2)
	th.(alloc.Unregisterer).Unregister()
	if err := alloc.HarnessOf(a).Inspect(0).InvariantErr; err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestShadowSuperblockRetireNoFalsePositive frees every block of a
// class so its superblocks retire to the region layer, then reallocates
// from recycled regions: the region hook must have invalidated the
// poison, so no stale write-after-free fires.
func TestShadowSuperblockRetireNoFalsePositive(t *testing.T) {
	a, c := newShadowed(t, "lockfree", alloc.Options{Processors: 1})
	th := a.NewThread()
	const n = 600 // several superblocks of 2048-byte blocks (7 each)
	ptrs := make([]mem.Ptr, n)
	for i := range ptrs {
		p, err := th.Malloc(2048)
		if err != nil {
			t.Fatalf("malloc: %v", err)
		}
		ptrs[i] = p
	}
	for _, p := range ptrs {
		th.Free(p)
	}
	// Reallocate; recycled superblock words may hold anything.
	for i := 0; i < n; i++ {
		p, err := th.Malloc(2048)
		if err != nil {
			t.Fatalf("re-malloc: %v", err)
		}
		a.Heap().Set(p, uint64(i)) // write through the fresh block
		th.Free(p)
	}
	if vs := c.all(); len(vs) != 0 {
		t.Fatalf("recycled superblocks flagged: %v", vs[0])
	}
}
