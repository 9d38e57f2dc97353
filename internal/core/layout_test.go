package core

import (
	"testing"
	"unsafe"
)

// TestHotWordsOwnTheirLines is the runtime half of the size assertions
// in layout.go: a 64-byte struct only keeps two threads off one line if
// the arrays holding it start on a line boundary. Processor heaps of one
// class (each owned by a different processor) and descriptors with
// consecutive indices (consecutive superblocks, which Larson-style
// workloads hand to different threads) must each sit on a line of their
// own — within a descriptor chunk and across a chunk boundary, and for
// processor counts whose heap arrays fall in different allocator size
// classes.
func TestHotWordsOwnTheirLines(t *testing.T) {
	owner := func(p unsafe.Pointer) (line uintptr, straddles bool) {
		return uintptr(p) / cacheLine, uintptr(p)%cacheLine != 0
	}
	for _, procs := range []int{1, 2, 3, 8, 9, 16, 64} {
		cfg := testConfig()
		cfg.Processors = procs
		a := New(cfg)
		lines := map[uintptr]bool{}
		for ci := range a.classes {
			sc := &a.classes[ci]
			for pi := range sc.heaps {
				line, straddles := owner(unsafe.Pointer(&sc.heaps[pi]))
				if straddles {
					t.Fatalf("procs=%d: class %d heap %d at %p straddles two lines", procs, ci, pi, &sc.heaps[pi])
				}
				if lines[line] {
					t.Fatalf("procs=%d: class %d heap %d shares its line with another heap", procs, ci, pi)
				}
				lines[line] = true
			}
		}
	}

	a := New(testConfig())
	var idxs []uint64
	for len(idxs) < 3*descChunk { // three chunks: two chunk boundaries
		idx, err := a.descs.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		idxs = append(idxs, idx)
	}
	lines := map[uintptr]uint64{}
	for idx := a.descs.First(); idx < a.descs.Limit(); idx++ {
		d := a.desc(idx)
		line, straddles := owner(unsafe.Pointer(d))
		if straddles {
			t.Fatalf("descriptor %d at %p straddles two lines", idx, d)
		}
		if prev, dup := lines[line]; dup {
			t.Fatalf("descriptors %d and %d share a line", prev, idx)
		}
		lines[line] = idx
	}
	for _, idx := range idxs {
		a.descs.Retire(0, idx)
	}
}
