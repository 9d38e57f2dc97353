package mem

import (
	"sync"
	"testing"
)

// TestBinCensusMatchesRegionBins checks the counter-backed census
// against the freelist walk at quiescence — the counters must agree
// bin-for-bin with what the links actually hold.
func TestBinCensusMatchesRegionBins(t *testing.T) {
	h := NewHeap(Config{SegmentWordsLog2: 14, TotalWordsLog2: 18})
	if bins := h.BinCensus(); len(bins) != 0 {
		t.Fatalf("fresh heap census non-empty: %+v", bins)
	}

	p1, w1, _ := h.AllocRegion(PageWords)
	p2, w2, _ := h.AllocRegion(PageWords)
	p3, w3, _ := h.AllocRegion(3 * PageWords)
	h.FreeRegion(p1, w1)
	h.FreeRegion(p2, w2)
	h.FreeRegion(p3, w3)

	census, walk := h.BinCensus(), h.RegionBins()
	want := []BinStat{{RegionWords: PageWords, Regions: 2}, {RegionWords: 3 * PageWords, Regions: 1}}
	if len(census) != len(want) || len(walk) != len(want) {
		t.Fatalf("census bins %+v, walk bins %+v, want %+v", census, walk, want)
	}
	for i := range want {
		if census[i] != want[i] || walk[i] != want[i] {
			t.Errorf("bin %d: census %+v, walk %+v, want %+v", i, census[i], walk[i], want[i])
		}
	}
}

// TestBinCensusConcurrent hammers the bins with parallel alloc/free
// while BinCensus runs: the counters are push/pop-maintained atomics, so
// the census must stay race-clean and in range (never more free words
// than the address space), and must match the walk once the churn
// quiesces.
func TestBinCensusConcurrent(t *testing.T) {
	h := NewHeap(Config{SegmentWordsLog2: 14, TotalWordsLog2: 18})
	stop := make(chan struct{})
	var churn sync.WaitGroup
	for g := 0; g < 4; g++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := 0; i < 2000; i++ {
				n := uint64(PageWords) << (i % 3)
				p, w, err := h.AllocRegion(n)
				if err != nil {
					t.Error(err)
					return
				}
				h.FreeRegion(p, w)
			}
		}()
	}
	var walker sync.WaitGroup
	walker.Add(1)
	go func() {
		defer walker.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var free uint64
			for _, b := range h.BinCensus() {
				free += uint64(b.Regions) * b.RegionWords
			}
			if free > h.TotalWords() {
				t.Errorf("free %d words > address space %d", free, h.TotalWords())
			}
		}
	}()
	churn.Wait()
	close(stop)
	walker.Wait()

	// Quiescent: counters and freelist links must agree exactly.
	var censusRegions, walkRegions int
	for _, b := range h.BinCensus() {
		censusRegions += b.Regions
	}
	for _, b := range h.RegionBins() {
		walkRegions += b.Regions
	}
	if censusRegions != walkRegions {
		t.Errorf("quiescent census %d regions, walk %d", censusRegions, walkRegions)
	}
}
