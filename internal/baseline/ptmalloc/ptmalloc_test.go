package ptmalloc

import (
	"sync"
	"testing"

	"repro/internal/chunkheap"
	"repro/internal/mem"
)

func newTest(arenas int) *Allocator {
	return New(Config{
		Arenas:     arenas,
		HeapConfig: mem.Config{TotalWordsLog2: 28},
	})
}

func TestRoundTrip(t *testing.T) {
	a := newTest(2)
	th := a.Thread()
	p, err := th.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	a.Heap().Set(p, 7)
	th.Free(p)
}

func TestFreeReturnsToOriginArena(t *testing.T) {
	a := newTest(4)
	// Threads 0 and 1 start on different arenas.
	t0 := a.Thread()
	t1 := a.Thread()
	p0, err := t0.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if got := chunkheap.Tag(a.Heap(), p0); got != uint64(t0.last) {
		t.Fatalf("block tagged arena %d, thread used arena %d", got, t0.last)
	}
	// t1 frees t0's block: it must land back in t0's arena, so t0 can
	// reuse it immediately.
	t1.Free(p0)
	p0b, err := t0.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if p0b != p0 {
		t.Errorf("block not reused from origin arena: %v then %v", p0, p0b)
	}
}

func TestArenaGrowthUnderLockPressure(t *testing.T) {
	a := newTest(1)
	if a.ArenaCount() != 1 {
		t.Fatal("want 1 initial arena")
	}
	// Hold the only arena's lock and malloc from another goroutine: a
	// new arena must be created (ptmalloc's arena_get2 behaviour).
	ar := (*a.arenas.Load())[0]
	ar.mu.Lock()
	done := make(chan mem.Ptr)
	go func() {
		th := a.Thread()
		p, err := th.Malloc(32)
		if err != nil {
			t.Error(err)
		}
		done <- p
	}()
	p := <-done
	ar.mu.Unlock()
	if a.ArenaCount() != 2 {
		t.Errorf("arenas = %d, want 2 after lock pressure", a.ArenaCount())
	}
	if got := chunkheap.Tag(a.Heap(), p); got != 1 {
		t.Errorf("block came from arena %d, want the new arena 1", got)
	}
	a.Thread().Free(p)
}

func TestThreadPrefersLastArena(t *testing.T) {
	a := newTest(4)
	th := a.Thread()
	p1, _ := th.Malloc(16)
	first := th.last
	p2, _ := th.Malloc(16)
	if th.last != first {
		t.Errorf("thread switched arenas without contention: %d -> %d", first, th.last)
	}
	th.Free(p1)
	th.Free(p2)
}

func TestLargeBlocksBypassArenas(t *testing.T) {
	a := newTest(2)
	th := a.Thread()
	before := a.Heap().Stats().RegionAllocs
	p, err := th.Malloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if a.Heap().Stats().RegionAllocs == before {
		t.Error("large block did not come from the OS layer")
	}
	th.Free(p)
	if live := a.Heap().Stats().LiveWords; live != 0 {
		// Arenas may hold wilderness; but a pure large alloc/free on a
		// fresh allocator must return everything.
		t.Errorf("LiveWords = %d after large free", live)
	}
}

func TestConcurrentMixedArenas(t *testing.T) {
	a := newTest(2)
	heap := a.Heap()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			th := a.Thread()
			var live []mem.Ptr
			for i := 0; i < 15000; i++ {
				if len(live) > 32 {
					th.Free(live[0])
					live = live[1:]
				}
				p, err := th.Malloc(8 << (seed + uint64(i)) % 7)
				if err != nil {
					t.Errorf("malloc: %v", err)
					return
				}
				heap.Set(p, seed)
				live = append(live, p)
			}
			for _, p := range live {
				th.Free(p)
			}
		}(uint64(g))
	}
	wg.Wait()
	if a.ArenaCount() > maxArenas {
		t.Error("arena cap exceeded")
	}
}
