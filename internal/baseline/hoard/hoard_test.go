package hoard

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/sizeclass"
)

func newTest() *Allocator {
	return New(Config{
		Processors: 2,
		HeapConfig: mem.Config{TotalWordsLog2: 28},
	})
}

func TestRoundTrip(t *testing.T) {
	a := newTest()
	th := a.Thread()
	p, err := th.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	a.Heap().Set(p, 42)
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

func TestHeapCount(t *testing.T) {
	a := newTest()
	if len(a.heaps) != 1+2*2 {
		t.Errorf("heaps = %d, want 2P+1 = 5", len(a.heaps))
	}
}

func TestThreadsHashToHeaps(t *testing.T) {
	a := newTest()
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		seen[a.Thread().heapIndex()] = true
	}
	for hi := range seen {
		if hi == 0 {
			t.Error("a thread hashed to the global heap")
		}
	}
	if len(seen) != 4 {
		t.Errorf("threads spread over %d heaps, want 4", len(seen))
	}
}

// TestEmptinessInvariant verifies Hoard's defining behaviour: after a
// thread frees most of its blocks, its processor heap sheds
// mostly-empty superblocks to the global heap (u >= a - K*S and
// u >= (1-f)a restored).
func TestEmptinessInvariant(t *testing.T) {
	a := newTest()
	th := a.Thread()
	cls, _ := sizeclass.For(8)
	// Fill enough superblocks to exceed the K-superblock slack (the
	// invariant only binds once a - u > K*S).
	n := int(cls.MaxCount) * 16
	ptrs := make([]mem.Ptr, n)
	for i := range ptrs {
		p, err := th.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	g0 := &a.heaps[0]
	g0.mu.Lock()
	beforeA := g0.a
	g0.mu.Unlock()
	// Free everything: the emptiness invariant must move superblocks
	// to the global heap.
	for _, p := range ptrs {
		th.Free(p)
	}
	g0.mu.Lock()
	afterA := g0.a
	g0.mu.Unlock()
	if afterA <= beforeA {
		t.Errorf("global heap capacity did not grow: %d -> %d", beforeA, afterA)
	}
	// And the owner heap must satisfy u >= a - K*S.
	hi := th.heapIndex()
	h := &a.heaps[hi]
	h.mu.Lock()
	u, capa := h.u, h.a
	h.mu.Unlock()
	if u+slack*sizeclass.SuperblockWords < capa {
		t.Errorf("emptiness invariant violated: u=%d a=%d", u, capa)
	}
}

// TestEmptinessSlackPerClass: the slack K·S counts S in the freed
// block's own superblock size. Freeing every block of eight two-block
// 12 KiB superblocks sheds them to the global heap until no more than K
// stay on the processor heap; measured in 16 KiB superblocks the slack
// would keep five.
func TestEmptinessSlackPerClass(t *testing.T) {
	a := newTest()
	th := a.Thread()
	cls, _ := sizeclass.For(6136)
	if cls.SBWords == sizeclass.SuperblockWords {
		t.Fatalf("the 6136 B class is on a %d-word superblock, want a 12 KiB one", cls.SBWords)
	}
	ptrs := make([]mem.Ptr, int(cls.MaxCount)*8)
	for i := range ptrs {
		p, err := th.Malloc(cls.PayloadBytes)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	for _, p := range ptrs {
		th.Free(p)
	}
	h := &a.heaps[th.heapIndex()]
	h.mu.Lock()
	u, capa := h.u, h.a
	h.mu.Unlock()
	if u+slack*cls.SBWords < capa {
		t.Errorf("emptiness invariant violated: u=%d a=%d, %d superblocks of %d words kept", u, capa,
			capa/(cls.MaxCount*cls.BlockWords), cls.SBWords)
	}
	g0 := &a.heaps[0]
	g0.mu.Lock()
	shed := g0.a
	g0.mu.Unlock()
	if shed < cls.MaxCount*cls.BlockWords {
		t.Errorf("no 12 KiB superblock reached the global heap: its capacity is %d words", shed)
	}
}

// TestGlobalHeapRefill verifies a second thread reuses superblocks
// shed to the global heap instead of growing the OS footprint.
func TestGlobalHeapRefill(t *testing.T) {
	a := newTest()
	t1 := a.Thread()
	cls, _ := sizeclass.For(8)
	n := int(cls.MaxCount) * 16
	ptrs := make([]mem.Ptr, n)
	for i := range ptrs {
		p, err := t1.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	for _, p := range ptrs {
		t1.Free(p)
	}
	allocsBefore := a.Heap().Stats().RegionAllocs
	// A thread on a different heap allocates: it should refill from
	// the global heap, not the OS.
	t2 := a.Thread() // id 1 -> different processor heap
	var ps []mem.Ptr
	for i := 0; i < int(cls.MaxCount); i++ {
		p, err := t2.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	if got := a.Heap().Stats().RegionAllocs; got != allocsBefore {
		t.Errorf("OS regions grew (%d -> %d) despite global-heap inventory", allocsBefore, got)
	}
	for _, p := range ps {
		t2.Free(p)
	}
}

// TestEmptySuperblocksLeaveProcessorHeap verifies that after a massive
// free, the memory is either parked in the global heap (Hoard keeps
// inventory for reuse) or — for superblocks that empty while
// global-owned — released to the OS.
func TestEmptySuperblocksLeaveProcessorHeap(t *testing.T) {
	a := newTest()
	th := a.Thread()
	cls, _ := sizeclass.For(2048)
	n := int(cls.MaxCount) * 32
	ptrs := make([]mem.Ptr, n)
	for i := range ptrs {
		p, err := th.Malloc(2048)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	for _, p := range ptrs {
		th.Free(p)
	}
	g0 := &a.heaps[0]
	g0.mu.Lock()
	globalCap := g0.a
	g0.mu.Unlock()
	released := a.Heap().Stats().RegionFrees
	if globalCap == 0 && released == 0 {
		t.Error("freed superblocks neither parked in the global heap nor released")
	}
	// The processor heap must satisfy the emptiness invariant.
	hi := th.heapIndex()
	h := &a.heaps[hi]
	h.mu.Lock()
	u, capa := h.u, h.a
	h.mu.Unlock()
	if u+slack*sizeclass.SuperblockWords < capa && u*emptyFractionDen < capa*(emptyFractionDen-emptyFractionNum) {
		t.Errorf("emptiness invariant violated: u=%d a=%d", u, capa)
	}
}

// TestRefillTransferRace is a regression test for the global->processor
// heap transfer: a concurrent free must never catch a superblock
// halfway between heaps (owner changed but not yet linked, or vice
// versa). One thread churns mallocs that repeatedly refill from the
// global heap while another frees the very blocks coming out of those
// transferred superblocks.
func TestRefillTransferRace(t *testing.T) {
	a := newTest()
	heap := a.Heap()
	producer := a.Thread()
	ch := make(chan mem.Ptr, 512)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // remote freer
		defer wg.Done()
		th := a.Thread()
		for p := range ch {
			if heap.Get(p) == 0 {
				t.Error("payload lost")
				return
			}
			th.Free(p)
		}
	}()
	// Heavy malloc/handoff churn: emptiness shedding moves superblocks
	// to the global heap, subsequent mallocs refill them back, all
	// while remote frees race the transfers.
	for round := 0; round < 200; round++ {
		var batch []mem.Ptr
		for i := 0; i < 600; i++ {
			p, err := producer.Malloc(8)
			if err != nil {
				t.Fatal(err)
			}
			heap.Set(p, uint64(round)<<16|uint64(i)|1)
			batch = append(batch, p)
		}
		for _, p := range batch {
			ch <- p
		}
	}
	close(ch)
	wg.Wait()
	// All superblocks must have consistent inUse counts (no underflow:
	// groupFor would have panicked) and heaps non-negative stats.
	for i := range a.heaps {
		h := &a.heaps[i]
		h.mu.Lock()
		if h.u > h.a {
			t.Errorf("heap %d: u=%d > a=%d", i, h.u, h.a)
		}
		h.mu.Unlock()
	}
}

func TestConcurrentIntegrity(t *testing.T) {
	a := newTest()
	heap := a.Heap()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := a.Thread()
			rng := rand.New(rand.NewSource(seed))
			type held struct {
				p   mem.Ptr
				tag uint64
			}
			var live []held
			for i := 0; i < 15000; i++ {
				if len(live) > 0 && (rng.Intn(2) == 0 || len(live) > 64) {
					k := rng.Intn(len(live))
					if heap.Get(live[k].p) != live[k].tag {
						t.Error("payload corrupted")
						return
					}
					th.Free(live[k].p)
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
				p, err := th.Malloc(uint64(8 << rng.Intn(8)))
				if err != nil {
					t.Errorf("malloc: %v", err)
					return
				}
				tag := uint64(seed)<<40 | uint64(i)
				heap.Set(p, tag)
				live = append(live, held{p, tag})
			}
			for _, h := range live {
				th.Free(h.p)
			}
		}(int64(g) + 1)
	}
	wg.Wait()
}
