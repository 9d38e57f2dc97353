package shadow_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/shadow"
)

// collector gathers violations delivered through OnViolation.
type collector struct {
	mu sync.Mutex
	vs []shadow.Violation
}

func (c *collector) add(v shadow.Violation) {
	c.mu.Lock()
	c.vs = append(c.vs, v)
	c.mu.Unlock()
}

func (c *collector) all() []shadow.Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]shadow.Violation(nil), c.vs...)
}

// newOracle builds a collecting oracle over a fresh heap and hands back
// a block of backing words to drive the model with.
func newOracle(t *testing.T, cfg shadow.Config) (*shadow.Oracle, *mem.Heap, mem.Ptr, *collector) {
	t.Helper()
	h := mem.NewHeap(mem.Config{})
	c := &collector{}
	cfg.Heap = h
	cfg.OnViolation = c.add
	o := shadow.New(cfg)
	t.Cleanup(o.Close)
	base, _, err := h.AllocRegion(256)
	if err != nil {
		t.Fatalf("AllocRegion: %v", err)
	}
	return o, h, base.Add(1), c
}

func wantKinds(t *testing.T, c *collector, kinds ...shadow.Kind) []shadow.Violation {
	t.Helper()
	vs := c.all()
	if len(vs) != len(kinds) {
		t.Fatalf("got %d violations %v, want %d", len(vs), vs, len(kinds))
	}
	for i, k := range kinds {
		if vs[i].Kind != k {
			t.Fatalf("violation %d: kind %v, want %v (%v)", i, vs[i].Kind, k, vs[i])
		}
	}
	return vs
}

func TestDoubleFreeAttribution(t *testing.T) {
	o, _, p, c := newOracle(t, shadow.Config{Name: "ut"})
	o.NoteMalloc(3, p, 64, 8)
	if !o.NoteFree(5, p) {
		t.Fatal("first free rejected")
	}
	if o.NoteFree(7, p) {
		t.Fatal("double free accepted")
	}
	vs := wantKinds(t, c, shadow.KindDoubleFree)
	v := vs[0]
	if v.Ptr != p || v.Thread != 7 || v.AllocThread != 3 || v.FreeThread != 5 {
		t.Fatalf("attribution wrong: %+v", v)
	}
	if !strings.Contains(v.Error(), "double-free") {
		t.Fatalf("Error() = %q", v.Error())
	}
	if err := o.Err(); err == nil || !strings.Contains(err.Error(), "1 violation") {
		t.Fatalf("Err() = %v", err)
	}
}

func TestUnknownFree(t *testing.T) {
	o, _, p, c := newOracle(t, shadow.Config{Name: "ut"})
	if o.NoteFree(1, p.Add(17)) {
		t.Fatal("unknown free accepted")
	}
	wantKinds(t, c, shadow.KindUnknownFree)
}

func TestInteriorFree(t *testing.T) {
	o, _, p, c := newOracle(t, shadow.Config{Name: "ut"})
	o.NoteMalloc(2, p, 64, 8)
	if o.NoteFree(4, p.Add(3)) {
		t.Fatal("interior free accepted")
	}
	vs := wantKinds(t, c, shadow.KindInteriorFree)
	if vs[0].AllocThread != 2 {
		t.Fatalf("attribution wrong: %+v", vs[0])
	}
}

func TestOverlappingLiveBlocks(t *testing.T) {
	o, _, p, c := newOracle(t, shadow.Config{Name: "ut"})
	o.NoteMalloc(0, p, 64, 8)
	o.NoteMalloc(1, p.Add(4), 64, 8) // lands inside the live block
	vs := wantKinds(t, c, shadow.KindOverlap)
	if vs[0].AllocThread != 0 || vs[0].Thread != 1 {
		t.Fatalf("attribution wrong: %+v", vs[0])
	}
	// The same address handed out twice is also an overlap.
	o.NoteMalloc(2, p, 64, 8)
	wantKinds(t, c, shadow.KindOverlap, shadow.KindOverlap)
}

func TestWriteAfterFree(t *testing.T) {
	o, h, p, c := newOracle(t, shadow.Config{Name: "ut", VerifyOnReuse: true})
	o.NoteMalloc(0, p, 64, 8)
	o.NoteFree(1, p)
	for i := uint64(0); i < 8; i++ {
		if got := h.Get(p.Add(i)); got != shadow.PoisonWord {
			t.Fatalf("payload word %d not poisoned: %#x", i, got)
		}
	}
	h.Set(p.Add(5), 0xbad) // the write-after-free
	o.NoteMalloc(2, p, 64, 8)
	vs := wantKinds(t, c, shadow.KindWriteAfterFree)
	v := vs[0]
	if v.Ptr != p || v.AllocThread != 0 || v.FreeThread != 1 || v.Thread != 2 {
		t.Fatalf("attribution wrong: %+v", v)
	}
}

func TestCleanReuseAfterPoison(t *testing.T) {
	o, _, p, c := newOracle(t, shadow.Config{Name: "ut", VerifyOnReuse: true})
	o.NoteMalloc(0, p, 64, 8)
	o.NoteFree(0, p)
	o.NoteMalloc(0, p, 64, 8) // untouched poison: clean
	o.NoteFree(0, p)
	if vs := c.all(); len(vs) != 0 {
		t.Fatalf("clean reuse flagged: %v", vs)
	}
}

func TestRecycleInvalidatesPoison(t *testing.T) {
	o, h, p, c := newOracle(t, shadow.Config{Name: "ut", VerifyOnReuse: true})
	o.NoteMalloc(0, p, 64, 8)
	o.NoteFree(0, p)
	// The region layer reclaims and rewrites the range; the hook fires.
	o.InvalidateRange(p-1, 64)
	h.Set(p, 0x1234) // legitimate: the region was recycled
	o.NoteMalloc(1, p, 64, 8)
	if vs := c.all(); len(vs) != 0 {
		t.Fatalf("recycled range flagged as write-after-free: %v", vs)
	}
}

func TestRecycledUnderLiveBlock(t *testing.T) {
	o, _, p, c := newOracle(t, shadow.Config{Name: "ut"})
	o.NoteMalloc(6, p, 64, 8)
	o.InvalidateRange(p-1, 64)
	vs := wantKinds(t, c, shadow.KindRecycledLive)
	if vs[0].Ptr != p || vs[0].AllocThread != 6 {
		t.Fatalf("attribution wrong: %+v", vs[0])
	}
}

func TestPrefixMismatch(t *testing.T) {
	o, h, p, c := newOracle(t, shadow.Config{Name: "ut"})
	o.NoteMalloc(0, p, 64, 8)
	h.Store(p-1, h.Load(p-1)+2) // clobber the allocator's block prefix
	if o.NoteFree(1, p) {
		t.Fatal("free through clobbered prefix accepted")
	}
	wantKinds(t, c, shadow.KindPrefixMismatch)
}

func TestUndersizedBlock(t *testing.T) {
	o, _, p, c := newOracle(t, shadow.Config{Name: "ut"})
	o.NoteMalloc(0, p, 100, 2) // 16 usable bytes for a 100-byte request
	wantKinds(t, c, shadow.KindUndersized)
}

func TestCrossAllocatorFree(t *testing.T) {
	oa, _, pa, ca := newOracle(t, shadow.Config{Name: "alpha", CrossCheck: true})
	ob, _, _, cb := newOracle(t, shadow.Config{Name: "beta", CrossCheck: true})
	oa.NoteMalloc(0, pa, 64, 8)
	if ob.NoteFree(1, pa) {
		t.Fatal("cross-allocator free accepted")
	}
	vs := wantKinds(t, cb, shadow.KindCrossAllocatorFree)
	if !strings.Contains(vs[0].Detail, "alpha") {
		t.Fatalf("detail does not name the owning allocator: %q", vs[0].Detail)
	}
	if len(ca.all()) != 0 {
		t.Fatalf("owning oracle flagged: %v", ca.all())
	}
}

func TestLiveBlocksAndErrNil(t *testing.T) {
	o, _, p, _ := newOracle(t, shadow.Config{Name: "ut"})
	if err := o.Err(); err != nil {
		t.Fatalf("Err on clean oracle: %v", err)
	}
	o.NoteMalloc(0, p, 64, 8)
	o.NoteMalloc(0, p.Add(32), 64, 8)
	if n := o.LiveBlocks(); n != 2 {
		t.Fatalf("LiveBlocks = %d, want 2", n)
	}
	o.NoteFree(0, p)
	if n := o.LiveBlocks(); n != 1 {
		t.Fatalf("LiveBlocks = %d, want 1", n)
	}
}
