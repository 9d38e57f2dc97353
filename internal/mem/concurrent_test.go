package mem

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestConcurrentSegmentMaterialization hammers the lazy segment
// installation from many goroutines: every allocated region must be
// usable even when two goroutines race to materialize the same
// segment (one make() wins, the loser parks its slice as the spare).
func TestConcurrentSegmentMaterialization(t *testing.T) {
	h := NewHeap(Config{SegmentWordsLog2: 12, TotalWordsLog2: 24}) // many tiny segments
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				p, w, err := h.AllocRegion(PageWords)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				h.Store(p, id)
				h.Store(p.Add(w-1), id)
				if h.Load(p) != id || h.Load(p.Add(w-1)) != id {
					t.Error("segment materialization lost a write")
					return
				}
				h.FreeRegion(p, PageWords)
			}
		}(uint64(g))
	}
	wg.Wait()
}

// TestMaterializeRace releases 8 goroutines from one barrier onto a
// fresh heap, each bumping one quarter-granule region, so that every
// granule they reach is reached by several of them at once. Whoever
// loses the race for a table entry has allocated one granule for
// nothing and no more: each goroutine materializes at most once, so the
// Go memory allocated stays within (granules touched + 8) granules.
// Every entry is published once: the backing address a goroutine saw
// for its region is the one the heap still translates to at the end.
func TestMaterializeRace(t *testing.T) {
	const goroutines = 8
	for round := 0; round < 16; round++ {
		h := NewHeap(Config{TotalWordsLog2: 28}) // 256 KiB granules
		gran := h.granMask + 1
		words := gran / 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var wg sync.WaitGroup
		start := make(chan struct{})
		regions := make([]Ptr, goroutines)
		backing := make([]*uint64, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				p, w, err := h.AllocRegion(words)
				if err != nil || w != words {
					t.Errorf("AllocRegion(%d) = %v, %d, %v", words, p, w, err)
					return
				}
				regions[g] = p
				for i := uint64(0); i < w; i++ {
					h.Store(p.Add(i), uint64(g)<<32|i)
				}
				s := h.Words(p, w)
				backing[g] = unsafe.SliceData(s)
				for i := uint64(0); i < w; i++ {
					if want := uint64(g)<<32 | i; h.Load(p.Add(i)) != want || s[i] != want {
						t.Errorf("goroutine %d word %d: Load %#x, Words %#x, want %#x", g, i, h.Load(p.Add(i)), s[i], want)
						return
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		runtime.ReadMemStats(&after)
		if t.Failed() {
			return
		}

		touched := uint64(0)
		for g := range h.bases {
			if h.bases[g] != nil {
				touched++
			}
		}
		for g, p := range regions {
			if got := unsafe.SliceData(h.Words(p, words)); got != backing[g] {
				t.Errorf("region %v moved from %p to %p: its table entry was published twice", p, backing[g], got)
			}
		}
		if got := h.Stats().MaterializedWords; got != touched*gran {
			t.Errorf("MaterializedWords = %d with %d granules mapped, want %d", got, touched, touched*gran)
		}
		if grew, limit := after.TotalAlloc-before.TotalAlloc, (touched+goroutines)*gran*WordBytes; grew > limit {
			t.Errorf("%d goroutines reaching %d granules allocated %d bytes, limit %d", goroutines, touched, grew, limit)
		}
	}
}

// TestConcurrentAlignedAlloc races aligned and unaligned allocations;
// all alignments must hold and regions stay disjoint.
func TestConcurrentAlignedAlloc(t *testing.T) {
	h := NewHeap(Config{SegmentWordsLog2: 18, TotalWordsLog2: 27})
	const goroutines = 6
	var mu sync.Mutex
	type region struct {
		p Ptr
		w uint64
	}
	var all []region
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var p Ptr
				var w uint64
				var err error
				if id%2 == 0 {
					const align = 1 << 14
					p, err = h.AllocRegionAligned(align, align)
					w = align
					if err == nil && uint64(p)%align != 0 {
						t.Errorf("misaligned region %v", p)
						return
					}
				} else {
					p, w, err = h.AllocRegion(3 * PageWords)
				}
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				mu.Lock()
				all = append(all, region{p, w})
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			a, b := all[i], all[j]
			if uint64(a.p) < uint64(b.p)+b.w && uint64(b.p) < uint64(a.p)+a.w {
				t.Fatalf("regions overlap: %v+%d and %v+%d", a.p, a.w, b.p, b.w)
			}
		}
	}
}

// TestHyperConcurrentWithScavengeWindows alternates concurrent
// churn phases with quiescent scavenges.
func TestHyperConcurrentWithScavengeWindows(t *testing.T) {
	h := NewHeap(Config{SegmentWordsLog2: 18, TotalWordsLog2: 27})
	hy := NewHyper(h, 2048, 8) // tiny hyperblocks: frequent full-free
	for phase := 0; phase < 5; phase++ {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var held []Ptr
				for i := 0; i < 500; i++ {
					sb, err := hy.Alloc()
					if err != nil {
						t.Errorf("alloc: %v", err)
						return
					}
					held = append(held, sb)
					// A window of 8 per goroutine keeps several
					// hyperblocks in play (8 superblocks each), so
					// non-current ones can fully empty.
					if len(held) > 8 {
						hy.Free(held[0])
						held = held[1:]
					}
				}
				for _, sb := range held {
					hy.Free(sb)
				}
			}()
		}
		wg.Wait()
		hy.Scavenge() // quiescent point
		// Allocator still serves after scavenging.
		sb, err := hy.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		hy.Free(sb)
	}
	if hy.Stats().HyperReleases == 0 {
		t.Error("no hyperblock was ever released across 5 scavenges")
	}
}

// TestStorePublishedByCAS is a message-passing litmus test for Store
// without a barrier of its own. A writer Stores k words into a fresh
// region and publishes the region's Ptr by CAS into a head word; a
// reader Loads the head, then every word, and must see each one as the
// writer stored it. The reader frees the region and hands the head back
// with a CAS, so the writer's next region is often the same one
// recycled: a stale word would still carry an earlier hand-off's value.
// amd64's store order cannot fail this; what it pins is that neither
// the compiler nor a weaker memory model moves a Store past the CAS
// that publishes it.
func TestStorePublishedByCAS(t *testing.T) {
	const (
		handoffs = 100_000
		k        = 8
	)
	h := newTestHeap()
	head, _, err := h.AllocRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	h.Store(head, 0)
	words := RegionWords(k)
	word := func(i, j uint64) uint64 { return i<<8 | j | 1<<63 }
	// quit is set by a side that stops early, so the other does not spin
	// forever; a side that finishes leaves it alone, since the other may
	// still be spinning for a hand-off that is already published.
	var quit atomic.Bool
	spin := func(n *int) bool {
		if *n++; *n%64 == 0 {
			runtime.Gosched() // let the other side run on a single P
		}
		return !quit.Load()
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		for i := uint64(0); i < handoffs; i++ {
			p, _, err := h.AllocRegion(k)
			if err != nil {
				t.Error(err)
				quit.Store(true)
				return
			}
			for j := uint64(0); j < k; j++ {
				h.Store(p.Add(j), word(i, j))
			}
			for n := 0; !h.CAS(head, 0, uint64(p)); {
				if !spin(&n) {
					return
				}
			}
		}
	}()
	go func() { // reader
		defer wg.Done()
		for i := uint64(0); i < handoffs; i++ {
			var p Ptr
			for n := 0; p == 0; {
				if p = Ptr(h.Load(head)); p == 0 && !spin(&n) {
					t.Errorf("hand-off %d: the writer stopped", i)
					return
				}
			}
			for j := uint64(0); j < k; j++ {
				if got := h.Load(p.Add(j)); got != word(i, j) {
					t.Errorf("hand-off %d: word %d of %v reads %#x, stored %#x", i, j, p, got, word(i, j))
					quit.Store(true)
					return
				}
			}
			h.FreeRegion(p, words)
			if !h.CAS(head, uint64(p), 0) {
				t.Error("head changed while the reader held it")
				quit.Store(true)
				return
			}
		}
	}()
	wg.Wait()
}
