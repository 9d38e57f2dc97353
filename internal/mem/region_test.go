package mem

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// TestCapacitySemantics fills a heap of 16 segments of 2^14 words with
// segment-sized regions: ErrOutOfMemory comes only once the bump pointer
// has reserved the whole address space, and a region freed after that
// is still served from its bin.
func TestCapacitySemantics(t *testing.T) {
	h := NewHeap(Config{SegmentWordsLog2: 14, TotalWordsLog2: 18})
	var got, last uint64
	var lastP Ptr
	for {
		p, w, err := h.AllocRegion(32 * PageWords) // exactly one segment
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		got, last, lastP = got+w, w, p
	}
	// Segment 0 lost its first page (and the rest of that segment, since
	// a full-segment request cannot fit behind it), so 15 full segments
	// must have been served.
	if want := uint64(15 << 14); got != want {
		t.Errorf("obtained %d words of %d", got, want)
	}
	st := h.Stats()
	if st.ReservedWords != h.TotalWords() || st.SkippedWords != 1<<14-PageWords {
		t.Errorf("at ErrOutOfMemory ReservedWords = %d, SkippedWords = %d; want %d, %d",
			st.ReservedWords, st.SkippedWords, h.TotalWords(), 1<<14-PageWords)
	}
	if _, _, err := h.AllocRegion(PageWords); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("page alloc on a full heap: err = %v, want ErrOutOfMemory", err)
	}
	h.FreeRegion(lastP, last)
	if p, _, err := h.AllocRegion(32 * PageWords); err != nil || p != lastP {
		t.Errorf("alloc after a free on a full heap = %v, %v; want the freed %v", p, err, lastP)
	}
}

// TestConcurrentAlignedVsFreeStress races AllocRegionAligned against
// FreeRegion on one region size, seeding the bin with a misaligned
// region so the aligned path repeatedly pops, rejects, and pushes back
// (the hyperblock alignment-reuse path).
func TestConcurrentAlignedVsFreeStress(t *testing.T) {
	h := NewHeap(Config{SegmentWordsLog2: 18, TotalWordsLog2: 27})
	const words = 1 << 12 // 8 pages, power-of-two so alignment == size is legal
	// Bump a page first so the next bump is odd relative to `words`.
	if _, _, err := h.AllocRegion(PageWords); err != nil {
		t.Fatal(err)
	}
	p, w, err := h.AllocRegion(words)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(p)&(words-1) == 0 {
		t.Fatalf("seed region unexpectedly aligned: %v", p)
	}
	h.FreeRegion(p, w)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if id%2 == 0 {
					p, err := h.AllocRegionAligned(words, words)
					if err != nil {
						t.Errorf("aligned alloc: %v", err)
						return
					}
					if uint64(p)&(words-1) != 0 {
						t.Errorf("misaligned result %v", p)
						return
					}
					h.FreeRegion(p, words)
				} else {
					p, w, err := h.AllocRegion(words)
					if err != nil {
						t.Errorf("alloc: %v", err)
						return
					}
					h.FreeRegion(p, w)
				}
			}
		}(g)
	}
	wg.Wait()
	if live := h.Stats().LiveWords; live != PageWords {
		t.Errorf("LiveWords = %d, want %d (only the seed page)", live, PageWords)
	}
}

// TestRegionBins checks the quiescent bin-occupancy walk.
func TestRegionBins(t *testing.T) {
	h := NewHeap(Config{SegmentWordsLog2: 14, TotalWordsLog2: 18})
	if bins := h.RegionBins(); len(bins) != 0 {
		t.Fatalf("fresh heap has non-empty bins: %+v", bins)
	}
	p1, w1, _ := h.AllocRegion(PageWords)
	p2, w2, _ := h.AllocRegion(PageWords)
	p3, w3, _ := h.AllocRegion(3 * PageWords)
	h.FreeRegion(p1, w1)
	h.FreeRegion(p2, w2)
	h.FreeRegion(p3, w3)
	bins := h.RegionBins()
	want := []BinStat{
		{RegionWords: PageWords, Regions: 2},
		{RegionWords: 3 * PageWords, Regions: 1},
	}
	if len(bins) != len(want) {
		t.Fatalf("RegionBins = %+v, want %+v", bins, want)
	}
	for i := range want {
		if bins[i] != want[i] {
			t.Errorf("bin %d = %+v, want %+v", i, bins[i], want[i])
		}
	}
}

// TestArenasOneMatchesGlobalLayout verifies the region allocator hands
// out, address for address, what the per-processor arena sharding it
// replaced handed out when configured with a single arena (the addresses
// below were recorded from it): one bump pointer walking every segment
// in order under the granule and segment rules, aligned requests, and
// exact-size reuse from the bins.
func TestArenasOneMatchesGlobalLayout(t *testing.T) {
	h := NewHeap(Config{SegmentWordsLog2: 18, TotalWordsLog2: 27}) // 64-page granules, 512-page segments
	type req struct{ pages, align uint64 }
	reqs := []req{{1, 0}, {3, 0}, {20, 0}, {64, 0}, {7, 0}, {128, 0}, {2, 0}, {8, 8},
		{512, 0}, {33, 0}, {1, 0}, {256, 256}, {40, 0}, {60, 0}}
	var got []Ptr
	for _, r := range reqs {
		var p Ptr
		var err error
		if r.align != 0 {
			p, err = h.AllocRegionAligned(r.pages*PageWords, r.align*PageWords)
		} else {
			p, _, err = h.AllocRegion(r.pages * PageWords)
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p)
	}
	h.FreeRegion(got[1], 3*PageWords)
	h.FreeRegion(got[3], 64*PageWords)
	for _, pages := range []uint64{3, 64, 5} {
		p, _, err := h.AllocRegion(pages * PageWords)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p)
	}
	want := []Ptr{0x200, 0x400, 0xa00, 0x8000, 0x10000, 0x18000, 0x28000, 0x29000,
		0x40000, 0x80000, 0x84200, 0xa0000, 0xc0000, 0xc8000, 0x400, 0x8000, 0xd0000}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("region %d at %#x, want %#x", i, uint64(got[i]), uint64(want[i]))
		}
	}
	st := h.Stats()
	want2 := Stats{ReservedWords: 854528, MaterializedWords: 720896, LiveWords: 583680, MaxLiveWords: 583680,
		RegionAllocs: 17, RegionFrees: 2, ReusedRegions: 2, SkippedWords: 270336}
	if st != want2 {
		t.Errorf("Stats = %+v\nwant    %+v", st, want2)
	}
}

// TestSpareGranule has two goroutines bump one-page regions through 64
// granules of one heap. Both reach each fresh granule at nearly the same
// moment, and the loser of the race to publish its backing parks the
// slice in the spare slot for the next granule instead of dropping it,
// so the Go memory allocated stays within the granules mapped plus the
// one parked.
func TestSpareGranule(t *testing.T) {
	h := NewHeap(Config{TotalWordsLog2: 28}) // 256 KiB granules
	gran := h.granMask + 1
	const granules = 64
	perGoroutine := (granules*gran/PageWords - 1) / 2 // the first page is never handed out
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := uint64(0); i < perGoroutine; i++ {
				if _, _, err := h.AllocRegion(PageWords); err != nil {
					t.Errorf("AllocRegion: %v", err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	runtime.ReadMemStats(&after)
	if got := h.Stats().MaterializedWords; got != granules*gran {
		t.Fatalf("MaterializedWords = %d, want %d granules", got, granules)
	}
	const slack = 64 << 10
	if grew, limit := after.TotalAlloc-before.TotalAlloc, (granules+1)*gran*WordBytes+slack; grew > limit {
		t.Errorf("mapping %d granules allocated %d bytes (%.1f granules), limit %d",
			granules, grew, float64(grew)/float64(gran*WordBytes), limit)
	}
}
