package pool

import (
	"errors"
	"sync"
	"testing"
)

func ctBackend(t *testing.T, p *tpool) *backendConstTime[tnode, *tnode] {
	t.Helper()
	c, ok := p.be.(*backendConstTime[tnode, *tnode])
	if !ok {
		t.Fatalf("backend is %T, want backendConstTime", p.be)
	}
	return c
}

// TestConstTimeBatchLifecycle walks a single slot through the whole
// batch state machine: grow fills a full batch, draining it parks it
// dry, refilling flips it between cur and spare, and disposal files
// displaced batches on the stacks by fullness.
func TestConstTimeBatchLifecycle(t *testing.T) {
	p := newTestPool(Config{ChunkLog2: 2, MaxChunks: 16, Algo: AlgoConstTime})
	c := ctBackend(t, p)

	// First alloc grows one chunk (4 nodes) into a fresh full batch.
	idxs := []uint64{mustAlloc(t, p, 0)}
	if got := p.Retired(); got != 3 {
		t.Fatalf("after first alloc Retired = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		idxs = append(idxs, mustAlloc(t, p, 0))
	}
	if got := p.Retired(); got != 0 {
		t.Fatalf("after draining the batch Retired = %d, want 0", got)
	}
	// The drained batch must still be parked on the slot, not leaked.
	if cur := c.slots[0].cur.Load(); cur == 0 {
		t.Fatal("dry batch not parked on the slot")
	}
	// Retire everything: refills the parked batch (and, once full, a
	// second one from the empty stack or table).
	for _, idx := range idxs {
		p.Retire(0, idx)
	}
	if got := p.Retired(); got != 4 {
		t.Fatalf("after retiring all Retired = %d, want 4", got)
	}
	free := freeIndices(t, p)
	for _, idx := range idxs {
		if !free[idx] {
			t.Fatalf("index %d lost by the batch machinery", idx)
		}
	}
	var sum uint64
	for _, n := range p.StripeFree() {
		sum += n
	}
	if sum != 4 {
		t.Fatalf("StripeFree sums to %d, want 4", sum)
	}
}

// TestConstTimeOverflowFallback caps the batch table at its current
// size so newBatch always fails: retires must fall back to the
// overflow freelist, allocs must drain it before growing, and the
// grow path must spill chunk remainders onto it — all without losing
// a node or failing a free.
func TestConstTimeOverflowFallback(t *testing.T) {
	p := newTestPool(Config{ChunkLog2: 2, MaxChunks: 8, Algo: AlgoConstTime})
	c := ctBackend(t, p)
	c.maxBatches = c.nextBatch.Load() // no batch can ever be created

	// Grow path with no batch available: first node served directly,
	// the chunk's remainder spliced onto the overflow list.
	idx := mustAlloc(t, p, 0)
	if got := p.Retired(); got != 3 {
		t.Fatalf("after capped grow Retired = %d, want 3", got)
	}
	if free := p.StripeFree(); free[0] != 3 {
		t.Fatalf("overflow not visible in StripeFree: %v", free)
	}
	// Retire with no batch available: overflow fallback, never fails.
	p.Retire(0, idx)
	if got := p.Retired(); got != 4 {
		t.Fatalf("after overflow retire Retired = %d, want 4", got)
	}
	// Churn through exhaustion entirely on the overflow path.
	live := map[uint64]bool{}
	for {
		idx, err := p.Alloc(0)
		if err != nil {
			if !errors.Is(err, ErrExhausted) {
				t.Fatal(err)
			}
			break
		}
		if live[idx] {
			t.Fatalf("index %d double-allocated on overflow path", idx)
		}
		live[idx] = true
	}
	if got, want := uint64(len(live)), p.Allocated(); got != want {
		t.Fatalf("drained %d nodes, allocated %d", got, want)
	}
	for idx := range live {
		p.Retire(0, idx)
	}
	if free := freeIndices(t, p); uint64(len(free)) != p.Retired() {
		t.Fatalf("overflow freelist holds %d, retired %d", len(free), p.Retired())
	}
}

// TestConstTimeDisplacement forces the park-displacement path: a
// batch swapped into an occupied slot word must be disposed to the
// matching shared stack, not dropped.
func TestConstTimeDisplacement(t *testing.T) {
	p := newTestPool(Config{ChunkLog2: 2, MaxChunks: 16, Algo: AlgoConstTime})
	c := ctBackend(t, p)

	// Two full batches: grow twice by draining and retiring 8 nodes.
	var idxs []uint64
	for i := 0; i < 8; i++ {
		idxs = append(idxs, mustAlloc(t, p, 0))
	}
	for _, idx := range idxs {
		p.Retire(0, idx)
	}
	// cur and spare now hold one batch each (4 nodes apiece).
	if cur, spare := c.slots[0].cur.Load(), c.slots[0].spare.Load(); cur == 0 || spare == 0 {
		t.Fatalf("expected both slot words occupied, cur=%d spare=%d", cur, spare)
	}
	// Claim cur, then park a table-fresh empty batch over the occupied
	// spare: the displaced full batch must surface on the full stack.
	bi := c.slots[0].cur.Swap(0)
	fresh := c.newBatch()
	if fresh == 0 {
		t.Fatal("newBatch failed below the cap")
	}
	c.park(&c.slots[0].spare, fresh)
	c.park(&c.slots[0].cur, bi)
	if got := c.stackFree(&c.full) + c.stackFree(&c.partial); got != 4 {
		t.Fatalf("displaced batch holds %d nodes on the stacks, want 4", got)
	}
	// Nothing lost: the full reconciliation still holds.
	if free := freeIndices(t, p); uint64(len(free)) != p.Retired() {
		t.Fatalf("after displacement freelists hold %d, retired %d", len(free), p.Retired())
	}
	// And the displaced batch is drainable: alloc everything back.
	seen := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		idx := mustAlloc(t, p, 0)
		if seen[idx] {
			t.Fatalf("index %d served twice after displacement", idx)
		}
		seen[idx] = true
	}
}

// TestConstTimeSharedStackHandoff: a producer slot's surplus batches
// must reach a consumer on a different slot through the shared stacks.
func TestConstTimeSharedStackHandoff(t *testing.T) {
	p := newTestPool(Config{ChunkLog2: 2, MaxChunks: 64, Stripes: 4, Algo: AlgoConstTime})
	// Slot 1 produces 32 retired nodes (8 batches' worth).
	var idxs []uint64
	for i := 0; i < 32; i++ {
		idxs = append(idxs, mustAlloc(t, p, 1))
	}
	for _, idx := range idxs {
		p.Retire(1, idx)
	}
	limit := p.Limit()
	// Slot 3 must consume them via the stacks, never growing.
	for i := 0; i < 32; i++ {
		mustAlloc(t, p, 3)
	}
	if p.Limit() != limit {
		t.Fatalf("consumer grew the pool (%d -> %d) instead of draining the stacks", limit, p.Limit())
	}
}

// TestConstTimeConcurrentOverflow hammers the capped-table fallback
// from many goroutines: every path (overflow retire, overflow alloc,
// capped grow spill) under -race, reconciling at the end.
func TestConstTimeConcurrentOverflow(t *testing.T) {
	p := newTestPool(Config{ChunkLog2: 3, MaxChunks: 1 << 8, Stripes: 2, Algo: AlgoConstTime})
	c := ctBackend(t, p)
	c.maxBatches = c.nextBatch.Load()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			iters := 5000
			if testing.Short() {
				iters = 500
			}
			held := make([]uint64, 0, 8)
			for i := 0; i < iters; i++ {
				idx, err := p.Alloc(g)
				if err != nil {
					t.Error(err)
					return
				}
				held = append(held, idx)
				if len(held) == cap(held) {
					for _, h := range held {
						p.Retire(g+1, h)
					}
					held = held[:0]
				}
			}
			for _, h := range held {
				p.Retire(g, h)
			}
		}(g)
	}
	wg.Wait()
	if got, want := p.Allocated(), p.Retired(); got != want {
		t.Fatalf("quiescent: allocated %d != retired %d", got, want)
	}
	if free := freeIndices(t, p); uint64(len(free)) != p.Retired() {
		t.Fatalf("freelists hold %d, retired %d", len(free), p.Retired())
	}
}
