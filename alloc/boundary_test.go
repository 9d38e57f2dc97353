package alloc_test

import (
	"errors"
	"testing"

	"repro/alloc"
	"repro/internal/mem"
	"repro/internal/sizeclass"
)

// boundarySizes are the request sizes (bytes) where allocators switch
// representation: zero, one word, the largest small class
// (sizeclass.MaxPayloadBytes, half a superblock), the first large size, and the
// chunk-based baselines' direct-OS threshold (4096 words = 32768 bytes,
// where `words >= threshold` flips at 32760/32768).
var boundarySizes = []uint64{
	0, 1, 7, 8, 9,
	sizeclass.MaxPayloadBytes - 8, // one word short of the top class's payload
	sizeclass.MaxPayloadBytes - 1, // rounds up to exactly the top class
	sizeclass.MaxPayloadBytes,     // the largest small payload
	sizeclass.MaxPayloadBytes + 1, // the smallest large payload
	sizeclass.MaxPayloadBytes + 8,
	32752, 32760, 32768, 32776, // around the chunk heaps' OS threshold
}

// unservableSizes are requests no backend can serve, where rounding up
// to words would wrap to a one-word block if done as (size+7)/8.
var unservableSizes = []uint64{^uint64(0), ^uint64(0) - 6}

// TestBoundaryConformance drives every registered allocator across the
// small/large boundary sizes: each block must hold at least the
// requested bytes (checked via the handle's UsableWords), its first and
// last requested words must be writable without clobbering any other
// live block, and free must round-trip so the size can be served again.
// A size no heap can hold is an error wrapping mem.ErrOutOfMemory, never
// a smaller block.
func TestBoundaryConformance(t *testing.T) {
	for _, name := range alloc.Names() {
		t.Run(name, func(t *testing.T) {
			a, err := alloc.New(name, alloc.Options{Processors: 2})
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}
			th := a.NewThread()
			sizer, ok := th.(interface{ UsableWords(mem.Ptr) uint64 })
			if !ok {
				t.Fatalf("%q: Thread handle does not expose UsableWords", name)
			}
			h := a.Heap()

			// Allocate all boundary sizes simultaneously, tattoo each
			// block's first and last requested word, then verify every
			// tattoo before freeing: overlapping blocks at a boundary
			// would overwrite a neighbor's mark.
			type blk struct {
				p     mem.Ptr
				size  uint64
				words uint64
			}
			var blocks []blk
			for i, sz := range boundarySizes {
				p, err := th.Malloc(sz)
				if err != nil {
					t.Fatalf("Malloc(%d): %v", sz, err)
				}
				words := mem.PayloadWords(sz) // even Malloc(0) returns a usable pointer
				if u := sizer.UsableWords(p); u < words {
					t.Fatalf("Malloc(%d): usable %d words < requested %d", sz, u, words)
				}
				mark := uint64(0xb10c<<16) | uint64(i)
				h.Set(p, mark)
				if words > 1 {
					h.Set(p.Add(words-1), ^mark)
				}
				blocks = append(blocks, blk{p: p, size: sz, words: words})
			}
			for i, b := range blocks {
				mark := uint64(0xb10c<<16) | uint64(i)
				if got := h.Get(b.p); got != mark {
					t.Fatalf("Malloc(%d): first word clobbered: %#x, want %#x", b.size, got, mark)
				}
				if b.words > 1 {
					if got := h.Get(b.p.Add(b.words - 1)); got != ^mark {
						t.Fatalf("Malloc(%d): last word clobbered: %#x, want %#x", b.size, got, ^mark)
					}
				}
			}
			for _, b := range blocks {
				th.Free(b.p)
			}
			// Every boundary size must be servable again after the free.
			for _, sz := range boundarySizes {
				p, err := th.Malloc(sz)
				if err != nil {
					t.Fatalf("second Malloc(%d): %v", sz, err)
				}
				th.Free(p)
			}
			for _, sz := range unservableSizes {
				if p, err := th.Malloc(sz); !errors.Is(err, mem.ErrOutOfMemory) {
					t.Errorf("Malloc(%#x) = %v, %v; want an error wrapping mem.ErrOutOfMemory", sz, p, err)
				}
			}
			if u, ok := th.(alloc.Unregisterer); ok {
				u.Unregister()
			}
		})
	}
}

// TestBoundaryClassAgreement pins the small/large split of the
// lock-free allocator's prefix encoding at the exact threshold:
// MaxPayloadBytes is served from a superblock (even prefix), one byte
// more from the region layer (odd prefix).
func TestBoundaryClassAgreement(t *testing.T) {
	a := alloc.NewLockFree(alloc.Options{Processors: 1})
	th := a.NewThread()
	h := a.Heap()
	for _, c := range []struct {
		size  uint64
		large bool
	}{
		{sizeclass.MaxPayloadBytes, false},
		{sizeclass.MaxPayloadBytes + 1, true},
	} {
		p, err := th.Malloc(c.size)
		if err != nil {
			t.Fatalf("Malloc(%d): %v", c.size, err)
		}
		if isLarge := h.Load(p-1)&1 != 0; isLarge != c.large {
			t.Fatalf("Malloc(%d): large=%v, want %v", c.size, isLarge, c.large)
		}
		th.Free(p)
	}
	if sizeclass.IsLarge(sizeclass.MaxPayloadBytes) {
		t.Error("IsLarge(MaxPayloadBytes) = true; the boundary is inclusive")
	}
	if !sizeclass.IsLarge(sizeclass.MaxPayloadBytes + 1) {
		t.Error("IsLarge(MaxPayloadBytes+1) = false")
	}
}
