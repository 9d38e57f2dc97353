package serial

import (
	"sync"
	"testing"

	"repro/internal/mem"
)

func newTest() *Allocator {
	return New(Config{HeapConfig: mem.Config{TotalWordsLog2: 28}})
}

func TestRoundTrip(t *testing.T) {
	a := newTest()
	th := a.Thread()
	p, err := th.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	a.Heap().Set(p, 99)
	th.Free(p)
	q, err := th.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if p != q {
		t.Errorf("freed block not reused: %v then %v", p, q)
	}
	th.Free(q)
}

func TestCounts(t *testing.T) {
	a := newTest()
	th := a.Thread()
	for i := 0; i < 10; i++ {
		p, err := th.Malloc(32)
		if err != nil {
			t.Fatal(err)
		}
		th.Free(p)
	}
	m, f := a.Counts()
	if m != 10 || f != 10 {
		t.Errorf("counts = %d/%d, want 10/10", m, f)
	}
}

func TestCoalescingThroughGlobalLock(t *testing.T) {
	// Three adjacent blocks freed out of order must merge into a chunk
	// serving a larger request (best-fit tree policy).
	a := newTest()
	th := a.Thread()
	p1, _ := th.Malloc(80)
	p2, _ := th.Malloc(80)
	p3, _ := th.Malloc(80)
	guard, _ := th.Malloc(80)
	th.Free(p1)
	th.Free(p3)
	th.Free(p2)
	big, err := th.Malloc(250)
	if err != nil {
		t.Fatal(err)
	}
	if big != p1 {
		t.Errorf("merged chunk not reused: got %v want %v", big, p1)
	}
	th.Free(big)
	th.Free(guard)
}

func TestLargeBlocksAreRegions(t *testing.T) {
	a := newTest()
	th := a.Thread()
	p, err := th.Malloc(64 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	th.Free(p)
	s := a.Heap().Stats()
	if s.RegionFrees == 0 {
		t.Error("large block was not returned to the OS layer")
	}
}

func TestSerializedConcurrency(t *testing.T) {
	a := newTest()
	heap := a.Heap()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := a.Thread()
			var live []mem.Ptr
			for i := 0; i < 10000; i++ {
				if len(live) > 16 {
					th.Free(live[0])
					live = live[1:]
				}
				p, err := th.Malloc(8 + seed*8)
				if err != nil {
					t.Errorf("malloc: %v", err)
					return
				}
				heap.Set(p, seed)
				live = append(live, p)
			}
			for _, p := range live {
				if heap.Get(p) != seed {
					t.Error("corruption")
					return
				}
				th.Free(p)
			}
		}(uint64(g))
	}
	wg.Wait()
	m, f := a.Counts()
	if m != f {
		t.Errorf("mallocs %d != frees %d", m, f)
	}
}
