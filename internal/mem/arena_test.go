package mem

import (
	"errors"
	"sync"
	"testing"
)

// arenaTestHeap: 4 arenas over 16 segments of 2^14 words (32 pages
// each), 2^18 words total.
func arenaTestHeap() *Heap {
	return NewHeap(Config{SegmentWordsLog2: 14, TotalWordsLog2: 18, Arenas: 4})
}

func TestArenaConfigClamping(t *testing.T) {
	if n := NewHeap(Config{SegmentWordsLog2: 14, TotalWordsLog2: 24}).Arenas(); n != 1 {
		t.Errorf("default Arenas = %d, want 1", n)
	}
	if n := NewHeap(Config{SegmentWordsLog2: 14, TotalWordsLog2: 24, Arenas: 3}).Arenas(); n != 3 {
		t.Errorf("Arenas = %d, want 3", n)
	}
	// 2^16/2^14 = 4 segments: 100 arenas clamp to 4.
	if n := NewHeap(Config{SegmentWordsLog2: 14, TotalWordsLog2: 16, Arenas: 100}).Arenas(); n != 4 {
		t.Errorf("clamped Arenas = %d, want 4", n)
	}
}

// drainArena0 exhausts arena 0's own partition with n full-segment
// allocations (never freed), verifying no steal was needed, so the
// next request through arena 0 must steal.
func drainArena0(t *testing.T, h *Heap, n int) {
	t.Helper()
	a0 := h.Arena(0)
	for i := 0; i < n; i++ {
		if _, _, err := a0.AllocRegion(32 * PageWords); err != nil {
			t.Fatalf("drain alloc %d: %v", i, err)
		}
	}
	if st := h.Stats().Arenas[0]; st.Steals != 0 {
		t.Fatalf("drain stole %d regions; partition sizing is off", st.Steals)
	}
}

// TestArenaPartitioning verifies the segment-interleaved address
// partition: a request through arena i is served from a segment
// congruent to i (mod arenas) while the local partition has space, and
// a free routes back to the owning arena's bins by address.
func TestArenaPartitioning(t *testing.T) {
	h := arenaTestHeap()
	for i := 0; i < h.Arenas(); i++ {
		ar := h.Arena(i)
		p, w, err := ar.AllocRegion(PageWords)
		if err != nil {
			t.Fatalf("arena %d: %v", i, err)
		}
		if got := int(h.arenaOf(p)); got != i {
			t.Errorf("arena %d allocation landed in arena %d's partition (%v)", i, got, p)
		}
		// Free from a *different* arena's handle: must still route home.
		h.Arena((i+1)%h.Arenas()).FreeRegion(p, w)
		st := h.Stats().Arenas[i]
		if st.RegionFrees != 1 {
			t.Errorf("arena %d RegionFrees = %d, want 1 (remote free must route home)", i, st.RegionFrees)
		}
		if st.LiveWords != 0 {
			t.Errorf("arena %d LiveWords = %d, want 0", i, st.LiveWords)
		}
		// The next allocation through arena i must reuse its binned region.
		p2, _, err := ar.AllocRegion(PageWords)
		if err != nil {
			t.Fatal(err)
		}
		if p2 != p {
			t.Errorf("arena %d did not reuse its freed region: got %v, want %v", i, p2, p)
		}
	}
	st := h.Stats()
	if st.Steals != 0 {
		t.Errorf("Steals = %d, want 0 (no arena was dry)", st.Steals)
	}
	if st.ReusedRegions != uint64(h.Arenas()) {
		t.Errorf("ReusedRegions = %d, want %d", st.ReusedRegions, h.Arenas())
	}
}

// TestArenaStealFromBins drains arena 0's partition, then verifies the
// next request steals from a sibling's bins rather than failing.
func TestArenaStealFromBins(t *testing.T) {
	h := arenaTestHeap()
	// Park a region in arena 1's bins.
	pv, w, err := h.Arena(1).AllocRegion(PageWords)
	if err != nil {
		t.Fatal(err)
	}
	h.FreeRegion(pv, w)
	// Exhaust arena 0's partition without triggering a steal: it owns
	// segments 0, 4, 8, 12 of 32 pages each; a full-segment request
	// skips segment 0 (its first page is reserved), so three requests
	// consume segments 4, 8, and 12 and dry the partition.
	a0 := h.Arena(0)
	drainArena0(t, h, 3)
	before := h.Stats()
	p, _, err := a0.AllocRegion(PageWords)
	if err != nil {
		t.Fatalf("steal failed: %v", err)
	}
	if p != pv {
		t.Errorf("expected the binned region %v from arena 1, got %v", pv, p)
	}
	after := h.Stats()
	if after.Arenas[0].Steals != before.Arenas[0].Steals+1 {
		t.Errorf("arena 0 Steals = %d, want %d", after.Arenas[0].Steals, before.Arenas[0].Steals+1)
	}
	if after.Arenas[0].ReusedRegions != before.Arenas[0].ReusedRegions+1 {
		t.Error("a bin steal must also count as a reuse")
	}
}

// TestArenaCapacitySemantics verifies sharding does not strand
// capacity: one arena's requests can consume the entire heap via
// stealing, and ErrOutOfMemory comes only when every arena is dry.
func TestArenaCapacitySemantics(t *testing.T) {
	h := arenaTestHeap()
	a0 := h.Arena(0)
	var got uint64
	for {
		_, w, err := a0.AllocRegion(32 * PageWords) // exactly one segment
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		got += w
	}
	// 16 segments; segment 0 lost its first page (and the rest of that
	// segment, since a full-segment request cannot fit behind it), so
	// 15 full segments must have been served, 12 of them stolen.
	if want := uint64(15 << 14); got != want {
		t.Errorf("single arena obtained %d words of %d", got, want)
	}
	if st := h.Stats(); st.Arenas[0].Steals != 12 {
		t.Errorf("Steals = %d, want 12", st.Arenas[0].Steals)
	}
}

// TestArenaStealInterleave drains one arena and then races allocation
// through it against sibling-arena alloc/free traffic, so steals
// interleave with local operations and remote frees (run under -race).
func TestArenaStealInterleave(t *testing.T) {
	h := NewHeap(Config{SegmentWordsLog2: 14, TotalWordsLog2: 20, Arenas: 4})
	// Dry out arena 0's own partition: 16 owned segments, of which the
	// first is skipped by full-segment requests.
	drainArena0(t, h, 15)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ar := h.Arena(id)
			for i := 0; i < 2000; i++ {
				p, w, err := ar.AllocRegion(PageWords)
				if err != nil {
					t.Errorf("arena %d: %v", id, err)
					return
				}
				h.Store(p, uint64(id))
				if h.Load(p) != uint64(id) {
					t.Errorf("arena %d: lost write", id)
					return
				}
				h.FreeRegion(p, w)
			}
		}(g)
	}
	wg.Wait()
	st := h.Stats()
	if st.Arenas[0].Steals == 0 {
		t.Error("drained arena recorded no steals")
	}
	// Everything the workers allocated was freed; only the drain
	// allocations remain live, all owned by arena 0.
	if st.LiveWords != st.Arenas[0].LiveWords {
		t.Errorf("LiveWords = %d, want only arena 0's %d", st.LiveWords, st.Arenas[0].LiveWords)
	}
}

// TestStalledStealDoesNotBlock parks a thread mid-steal forever and
// verifies every arena — including the steal victim — keeps serving
// allocations and frees: the steal path holds no resource while
// stalled (the kill-tolerance property, at the OS layer).
func TestStalledStealDoesNotBlock(t *testing.T) {
	h := arenaTestHeap()
	a0 := h.Arena(0)
	drainArena0(t, h, 3) // dry out arena 0 so its next request must steal
	parked := make(chan struct{})
	release := make(chan struct{})
	stealTestHook = func(requester, victim int) {
		if requester == 0 {
			close(parked)
			<-release // stall forever (until test cleanup)
		}
	}
	defer func() {
		stealTestHook = nil
		close(release)
	}()
	go func() {
		// This steal stalls at the hook; it must not block anyone.
		a0.AllocRegion(PageWords)
	}()
	<-parked
	for i := 1; i < h.Arenas(); i++ {
		p, w, err := h.Arena(i).AllocRegion(PageWords)
		if err != nil {
			t.Fatalf("arena %d blocked by a stalled steal: %v", i, err)
		}
		h.FreeRegion(p, w)
	}
}

// TestConcurrentAlignedVsFreeStress races AllocRegionAligned against
// FreeRegion on one region size, seeding the bins with misaligned
// regions so the aligned path repeatedly pops, rejects, and pushes
// back (the hyperblock alignment-reuse path).
func TestConcurrentAlignedVsFreeStress(t *testing.T) {
	h := NewHeap(Config{SegmentWordsLog2: 18, TotalWordsLog2: 27, Arenas: 2})
	const words = 1 << 12 // 8 pages, power-of-two so alignment == size is legal
	// Seed each arena's bin with a misaligned region of the size: bump
	// a page first so the next bump is odd relative to `words`.
	for i := 0; i < h.Arenas(); i++ {
		ar := h.Arena(i)
		if _, _, err := ar.AllocRegion(PageWords); err != nil {
			t.Fatal(err)
		}
		p, w, err := ar.AllocRegion(words)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(p)&(words-1) == 0 {
			t.Fatalf("seed region unexpectedly aligned: %v", p)
		}
		h.FreeRegion(p, w)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ar := h.Arena(id)
			for i := 0; i < 300; i++ {
				if id%2 == 0 {
					p, err := ar.AllocRegionAligned(words, words)
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
					p, w, err := ar.AllocRegion(words)
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
	if live := h.Stats().LiveWords; live != uint64(h.Arenas())*PageWords {
		t.Errorf("LiveWords = %d, want %d (only the seed pages)", live, h.Arenas()*PageWords)
	}
}

// TestRegionBins checks the quiescent bin-occupancy walk.
func TestRegionBins(t *testing.T) {
	h := arenaTestHeap()
	if bins := h.RegionBins(); len(bins) != 0 {
		t.Fatalf("fresh heap has non-empty bins: %+v", bins)
	}
	p1, w1, _ := h.Arena(0).AllocRegion(PageWords)
	p2, w2, _ := h.Arena(0).AllocRegion(PageWords)
	p3, w3, _ := h.Arena(2).AllocRegion(3 * PageWords)
	h.FreeRegion(p1, w1)
	h.FreeRegion(p2, w2)
	h.FreeRegion(p3, w3)
	bins := h.RegionBins()
	want := []BinStat{
		{Arena: 0, RegionWords: PageWords, Regions: 2},
		{Arena: 2, RegionWords: 3 * PageWords, Regions: 1},
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

// TestArenasOneMatchesGlobalLayout verifies Arenas=1 reproduces the
// unsharded layout: one bump pointer walking every segment in order.
func TestArenasOneMatchesGlobalLayout(t *testing.T) {
	h := NewHeap(Config{SegmentWordsLog2: 14, TotalWordsLog2: 18, Arenas: 1})
	var prevEnd uint64 = PageWords
	for i := 0; i < 12; i++ { // 12 * 20 pages crosses several segments
		p, w, err := h.AllocRegion(20 * PageWords)
		if err != nil {
			t.Fatal(err)
		}
		start := uint64(p)
		if start != prevEnd && start != (prevEnd>>14+1)<<14 {
			t.Fatalf("alloc %d at %#x: neither contiguous with %#x nor at the next segment", i, start, prevEnd)
		}
		prevEnd = start + w
	}
	st := h.Stats()
	if st.ReservedWords != prevEnd {
		t.Errorf("ReservedWords = %d, want the bump high-water %d", st.ReservedWords, prevEnd)
	}
	if len(st.Arenas) != 1 || st.Steals != 0 {
		t.Errorf("unexpected sharding: %d arenas, %d steals", len(st.Arenas), st.Steals)
	}
}
