package pool

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/atomicx"
)

// tnode is the test node: a stamp word for ownership checks plus the
// pool link word.
type tnode struct {
	stamp atomic.Uint64
	next  atomic.Uint64
}

func (n *tnode) PoolNext() *atomic.Uint64 { return &n.next }

type tpool = Pool[tnode, *tnode]

func newTestPool(cfg Config) *tpool { return New[tnode, *tnode](cfg) }

// freeIndices is FreeIndices on a pool whose freelists must be well
// formed.
func freeIndices(t *testing.T, p *tpool) map[uint64]bool {
	t.Helper()
	free, err := p.FreeIndices()
	if err != nil {
		t.Fatal(err)
	}
	return free
}

func mustAlloc(t *testing.T, p *tpool, stripe int) uint64 {
	t.Helper()
	idx, err := p.Alloc(stripe)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// forEachAlgo runs a subtest per recycling backend; behaviour-shared
// tests go through it, backend-specific ones (LIFO order) pin their
// algo.
func forEachAlgo(t *testing.T, f func(t *testing.T, algo Algo)) {
	for _, algo := range []Algo{AlgoFreelist, AlgoConstTime} {
		t.Run(algo.String(), func(t *testing.T) { f(t, algo) })
	}
}

func TestAllocDistinctAndRecycled(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		p := newTestPool(Config{ChunkLog2: 3, MaxChunks: 16, Algo: algo})
		const n = 20 // crosses chunk boundaries (chunk = 8)
		seen := map[uint64]bool{}
		idxs := make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			idx := mustAlloc(t, p, 0)
			if idx == 0 {
				t.Fatal("Alloc returned reserved index 0")
			}
			if idx < p.First() || idx >= p.Limit() {
				t.Fatalf("index %d outside [%d, %d)", idx, p.First(), p.Limit())
			}
			if seen[idx] {
				t.Fatalf("index %d allocated twice", idx)
			}
			seen[idx] = true
			idxs = append(idxs, idx)
		}
		if got := p.Allocated() - p.Retired(); got != n {
			t.Fatalf("live = %d, want %d", got, n)
		}
		for _, idx := range idxs {
			p.Retire(0, idx)
		}
		limit := p.Limit()
		// Steady-state churn must recycle, not grow.
		for i := 0; i < 10*n; i++ {
			p.Retire(0, mustAlloc(t, p, 0))
		}
		if p.Limit() != limit {
			t.Fatalf("pool grew %d -> %d under steady churn", limit, p.Limit())
		}
	})
}

func TestErrExhaustedTypedAndStable(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		// MaxChunks=2 with the first chunk reserved leaves exactly one
		// usable chunk of 4 nodes.
		p := newTestPool(Config{ChunkLog2: 2, MaxChunks: 2, Algo: algo})
		for i := 0; i < 4; i++ {
			mustAlloc(t, p, 0)
		}
		for i := 0; i < 3; i++ {
			if _, err := p.Alloc(0); !errors.Is(err, ErrExhausted) {
				t.Fatalf("attempt %d: err = %v, want wrapped ErrExhausted", i, err)
			}
		}
		if got := p.Limit(); got != 8 {
			t.Fatalf("exhaustion advanced the bump counter: Limit = %d, want 8", got)
		}
		if got, want := p.Allocated(), p.Limit()-p.First(); got != want {
			t.Fatalf("after exhaustion Allocated = %d, Limit-First = %d", got, want)
		}
		// Retiring a node makes the pool usable again.
		p.Retire(0, 4)
		if idx := mustAlloc(t, p, 0); idx != 4 {
			t.Fatalf("recycled index = %d, want 4", idx)
		}
	})
}

func TestRetireChain(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		p := newTestPool(Config{ChunkLog2: 4, MaxChunks: 4, Algo: algo})
		a, b, c := mustAlloc(t, p, 0), mustAlloc(t, p, 0), mustAlloc(t, p, 0)
		// Build the chain a -> b -> c by hand, preserving each link's tag.
		link := func(from, to uint64) {
			w := p.Get(from).PoolNext()
			old := atomicx.UnpackTagged(w.Load())
			w.Store(atomicx.Tagged{Idx: to, Tag: old.Tag + 1}.Pack())
		}
		link(a, b)
		link(b, c)
		before := p.Retired()
		p.RetireChain(0, a, c, 3)
		if got := p.Retired(); got != before+3 {
			t.Fatalf("retired %d -> %d, want +3", before, got)
		}
		// All three come back exactly once (the freelist backend
		// additionally guarantees LIFO, checked below).
		got := []uint64{mustAlloc(t, p, 0), mustAlloc(t, p, 0), mustAlloc(t, p, 0)}
		seen := map[uint64]bool{}
		for _, idx := range got {
			if seen[idx] {
				t.Fatalf("index %d served twice after RetireChain", idx)
			}
			seen[idx] = true
		}
		if !seen[a] || !seen[b] || !seen[c] {
			t.Fatalf("RetireChain lost nodes: got %v, want {%d %d %d}", got, a, b, c)
		}
		if algo == AlgoFreelist {
			// LIFO: the chain head comes back first.
			for i, want := range []uint64{a, b, c} {
				if got[i] != want {
					t.Fatalf("got %v, want LIFO [%d %d %d]", got, a, b, c)
				}
			}
		}
	})
}

func TestAccountingInvariant(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		// allocated == live + retired at every quiescent point, across all
		// of consttime's slots, with FreeIndices agreeing exactly.
		p := newTestPool(Config{ChunkLog2: 3, MaxChunks: 1 << 10, Stripes: 4, Algo: algo})
		live := map[uint64]bool{}
		rng := uint64(1)
		next := func() uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng >> 33 }
		for step := 0; step < 5000; step++ {
			if next()%2 == 0 || len(live) == 0 {
				idx := mustAlloc(t, p, int(next()%7))
				if live[idx] {
					t.Fatalf("step %d: index %d double-allocated", step, idx)
				}
				live[idx] = true
			} else {
				for idx := range live {
					delete(live, idx)
					p.Retire(int(next()%7), idx)
					break
				}
			}
		}
		if got, want := p.Allocated(), uint64(len(live))+p.Retired(); got != want {
			t.Fatalf("allocated %d != live %d + retired %d", got, len(live), p.Retired())
		}
		free := freeIndices(t, p)
		if uint64(len(free)) != p.Retired() {
			t.Fatalf("freelists hold %d, retired counter %d", len(free), p.Retired())
		}
		for idx := range live {
			if free[idx] {
				t.Fatalf("live index %d found on a freelist", idx)
			}
		}
		var stripeSum uint64
		for _, n := range p.StripeFree() {
			stripeSum += n
		}
		if stripeSum != p.Retired() {
			t.Fatalf("stripe walk sums to %d, retired counter %d", stripeSum, p.Retired())
		}
	})
}

// TestABARecyclingFuzz hammers Alloc/Retire from many goroutines,
// stamping each node at allocation with a CAS from zero: if
// recycling ever handed one index to two owners, the loser's stamp CAS
// fails. Run with -race in CI; covers both backends (for the
// constant-time one this doubles as the batch claim/park/displacement
// race test — Stripes=4 with 8 goroutines keeps slots contended).
func TestABARecyclingFuzz(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		for _, stripes := range []int{1, 4} {
			p := newTestPool(Config{ChunkLog2: 4, MaxChunks: 1 << 10, Stripes: stripes, Algo: algo})
			const goroutines = 8
			iters := 20000
			if testing.Short() {
				iters = 2000
			}
			var wg sync.WaitGroup
			var doubles atomic.Int64
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g uint64) {
					defer wg.Done()
					held := make([]uint64, 0, 16)
					for i := 0; i < iters; i++ {
						idx, err := p.Alloc(int(g))
						if err != nil {
							t.Error(err)
							return
						}
						tag := g<<32 | uint64(i) | 1
						if !p.Get(idx).stamp.CompareAndSwap(0, tag) {
							doubles.Add(1)
							continue
						}
						held = append(held, idx)
						if len(held) == cap(held) || i%3 == 0 {
							// Release in bursts, sometimes to a sibling slot,
							// to keep batch hand-offs in play.
							for _, h := range held {
								p.Get(h).stamp.Store(0)
								p.Retire(int(g+uint64(len(held)))%4, h)
							}
							held = held[:0]
						}
					}
					for _, h := range held {
						p.Get(h).stamp.Store(0)
						p.Retire(int(g), h)
					}
				}(uint64(g))
			}
			wg.Wait()
			if n := doubles.Load(); n != 0 {
				t.Fatalf("stripes=%d: %d double allocations detected", stripes, n)
			}
			if got, want := p.Allocated(), p.Retired(); got != want {
				t.Fatalf("stripes=%d quiescent: allocated %d != retired %d (all nodes released)", stripes, got, want)
			}
			if free := freeIndices(t, p); uint64(len(free)) != p.Retired() {
				t.Fatalf("stripes=%d: freelists hold %d, retired counter %d", stripes, len(free), p.Retired())
			}
		}
	})
}

// TestExhaustionAccountingReconciliation is the regression test for
// the exhaustion-path accounting asymmetry: Allocated used to be a
// separate counter bumped after chunk publication, so a walker racing
// grow (or probing after ErrExhausted) could observe
// Allocated() < Limit()-First(), and StripeFree's walk bound could be
// one chunk short. Allocated is now derived from the bump counter;
// this churns both backends to exhaustion and back under -race while
// a walker asserts the identity continuously.
func TestExhaustionAccountingReconciliation(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		p := newTestPool(Config{ChunkLog2: 2, MaxChunks: 8, Stripes: 2, Algo: algo})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		// Churners: drive to exhaustion, then release everything.
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				held := make([]uint64, 0, 32)
				for i := 0; ; i++ {
					select {
					case <-stop:
						for _, idx := range held {
							p.Retire(g, idx)
						}
						return
					default:
					}
					idx, err := p.Alloc(g)
					if err != nil {
						if !errors.Is(err, ErrExhausted) {
							t.Error(err)
							return
						}
						for _, h := range held {
							p.Retire(g+i, h)
						}
						held = held[:0]
						continue
					}
					held = append(held, idx)
				}
			}(g)
		}
		// Walker: the identity must hold at every instant, TryGet must
		// stay nil-or-valid across [First, Limit), and the stripe walk
		// must never loop past its bound. The walker cannot read both
		// sides of the identity at one instant while grow runs, so it
		// brackets Limit between two reads of Allocated: both only grow,
		// and an Allocated that ever lagged Limit would fall outside.
		for i := 0; i < 2000; i++ {
			before := p.Allocated()
			mid := p.Limit() - p.First()
			after := p.Allocated()
			if mid < before || mid > after {
				t.Errorf("iteration %d: Limit-First %d outside Allocated [%d, %d]", i, mid, before, after)
				break
			}
			limit := p.Limit()
			for idx := p.First(); idx < limit; idx++ {
				p.TryGet(idx) // must not panic, nil is fine mid-publication
			}
			var sum uint64
			for _, n := range p.StripeFree() {
				sum += n
			}
			if sum > p.Allocated()*2 {
				t.Errorf("iteration %d: stripe walk unbounded: %d", i, sum)
				break
			}
		}
		close(stop)
		wg.Wait()
		// Quiescent: exact reconciliation, including after the pool hit
		// ErrExhausted many times.
		if got, want := p.Allocated(), p.Limit()-p.First(); got != want {
			t.Fatalf("quiescent: Allocated %d != Limit-First %d", got, want)
		}
		if got, want := p.Allocated(), p.Retired(); got != want {
			t.Fatalf("quiescent: allocated %d != retired %d", got, want)
		}
		if free := freeIndices(t, p); uint64(len(free)) != p.Retired() {
			t.Fatalf("quiescent: freelists hold %d, retired %d", len(free), p.Retired())
		}
	})
}

// TestFreeIndicesReportsCycle retires two nodes of a ChunkLog2: 3 pool
// onto a freelist (the constant-time backend's overflow list, its batch
// table capped) and links the lower one back to the top: FreeIndices
// must end with an error naming a node, not loop.
func TestFreeIndicesReportsCycle(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		p := newTestPool(Config{ChunkLog2: 3, MaxChunks: 16, Algo: algo})
		if algo == AlgoConstTime {
			c := ctBackend(t, p)
			c.maxBatches = c.nextBatch.Load()
		}
		lo, hi := mustAlloc(t, p, 0), mustAlloc(t, p, 0)
		p.Retire(0, lo)
		p.Retire(0, hi) // the list is hi -> lo -> the chunk's rest
		p.Get(lo).next.Store(atomicx.Tagged{Idx: hi, Tag: 1 << 20}.Pack())
		done := make(chan error, 1)
		go func() {
			_, err := p.FreeIndices()
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "twice") {
				t.Fatalf("FreeIndices on a cyclic list: %v, want an index free twice", err)
			}
			t.Log(err)
		case <-time.After(time.Second):
			t.Fatal("FreeIndices on a cyclic list did not return within 1 s")
		}
	})
}

// TestAllocRetirePairAllocatesNothing pins that a warm Alloc/Retire
// pair costs no Go allocation: the freelists' link storage is made once,
// in New.
func TestAllocRetirePairAllocatesNothing(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		p := newTestPool(Config{ChunkLog2: 3, MaxChunks: 16, Algo: algo})
		p.Retire(0, mustAlloc(t, p, 0))
		if n := testing.AllocsPerRun(100, func() { p.Retire(0, mustAlloc(t, p, 0)) }); n != 0 {
			t.Errorf("Alloc/Retire pair: %v allocations, want 0", n)
		}
	})
}

// BenchmarkPoolAllocRetire pins backend regressions without the full
// harness: per backend × stripes {1, P} (the freelist has one head
// whatever Stripes is, so only consttime's rows differ).
func BenchmarkPoolAllocRetire(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	for _, algo := range []Algo{AlgoFreelist, AlgoConstTime} {
		for _, stripes := range []int{1, procs} {
			b.Run("algo="+algo.String()+"/stripes="+itoa(stripes), func(b *testing.B) {
				p := newTestPool(Config{ChunkLog2: 6, MaxChunks: 1 << 12, Stripes: stripes, Algo: algo})
				var id atomic.Int64
				b.RunParallel(func(pb *testing.PB) {
					g := int(id.Add(1))
					for pb.Next() {
						idx, err := p.Alloc(g)
						if err != nil {
							b.Fatal(err)
						}
						p.Retire(g, idx)
					}
				})
			})
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestTryGetUnpublishedChunk: indices whose chunk has never been
// carved must return nil from TryGet (the walker-safe accessor), while
// allocated indices resolve to the same node as Get.
func TestTryGetUnpublishedChunk(t *testing.T) {
	forEachAlgo(t, func(t *testing.T, algo Algo) {
		p := newTestPool(Config{ChunkLog2: 3, MaxChunks: 16, Algo: algo})
		idx := mustAlloc(t, p, 0)
		if p.TryGet(idx) == nil {
			t.Fatal("TryGet returned nil for an allocated index")
		}
		if p.TryGet(idx) != p.Get(idx) {
			t.Error("TryGet and Get disagree on an allocated index")
		}
		// An index two chunks past the bump counter lives in a chunk that
		// was never carved, and so does index 0, whose chunk is reserved:
		// TryGet reports both absent, Get panics naming the index.
		for _, bad := range []uint64{p.Limit() + 2*8, 0} {
			if got := p.TryGet(bad); got != nil {
				t.Errorf("TryGet(%d) in an uncarved chunk = %v, want nil", bad, got)
			}
			v := panicOf(func() { p.Get(bad) })
			if err, ok := v.(error); !ok || !strings.Contains(err.Error(), "unpublished chunk") {
				t.Errorf("Get(%d) in an uncarved chunk panicked with %#v, want an unpublished-chunk error", bad, v)
			}
		}
		// Past the chunk table there is no entry to load at all.
		if panicOf(func() { p.TryGet(16 * 8) }) == nil || panicOf(func() { p.Get(1 << 40) }) == nil {
			t.Error("an index beyond the chunk table did not panic")
		}
	})
}

// panicOf runs f and returns the value it panicked with, or nil.
func panicOf(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestTranslationIsDense: every index of [First, Limit) resolves to its
// own node, consecutive indices of a chunk are consecutive nodes, and a
// stamp written through one lookup is read back through another — the
// chunk-base table and the masked offset agree across chunk boundaries.
func TestTranslationIsDense(t *testing.T) {
	p := newTestPool(Config{ChunkLog2: 2, MaxChunks: 8})
	for p.Allocated() < 5*4 {
		mustAlloc(t, p, 0)
	}
	seen := map[*tnode]uint64{}
	for idx := p.First(); idx < p.Limit(); idx++ {
		n := p.Get(idx)
		if prev, dup := seen[n]; dup {
			t.Fatalf("indices %d and %d share node %p", prev, idx, n)
		}
		seen[n] = idx
		n.stamp.Store(idx)
		if idx%4 != 0 {
			if d := uintptr(unsafe.Pointer(n)) - uintptr(unsafe.Pointer(p.Get(idx-1))); d != unsafe.Sizeof(tnode{}) {
				t.Fatalf("indices %d and %d are %d bytes apart, want %d", idx-1, idx, d, unsafe.Sizeof(tnode{}))
			}
		}
	}
	for idx := p.First(); idx < p.Limit(); idx++ {
		if got := p.TryGet(idx).stamp.Load(); got != idx {
			t.Fatalf("index %d reads stamp %d", idx, got)
		}
	}
}

// lineNode is a pointer-free node of exactly one cache line, like
// core.Descriptor.
type lineNode struct {
	next atomic.Uint64
	_    [7]uint64
}

func (n *lineNode) PoolNext() *atomic.Uint64 { return &n.next }

// TestLineSizedNodesGetOwnLines: a pool of one-line nodes gives every
// index a cache line of its own, within a chunk and across chunks. grow
// relies on the Go allocator placing a pointer-free chunk whose size is
// a multiple of the line on a line boundary; this is the test that
// fails if a runtime ever stops doing so.
func TestLineSizedNodesGetOwnLines(t *testing.T) {
	for _, chunkLog2 := range []uint{0, 1, 3, 6, 10} {
		p := New[lineNode, *lineNode](Config{ChunkLog2: chunkLog2, MaxChunks: 8})
		for p.Allocated() < 4<<chunkLog2 {
			if _, err := p.Alloc(0); err != nil {
				t.Fatal(err)
			}
		}
		lines := map[uintptr]uint64{}
		for idx := p.First(); idx < p.Limit(); idx++ {
			addr := uintptr(unsafe.Pointer(p.Get(idx)))
			if addr%64 != 0 {
				t.Fatalf("ChunkLog2=%d: index %d at %#x straddles two lines", chunkLog2, idx, addr)
			}
			if prev, dup := lines[addr/64]; dup {
				t.Fatalf("ChunkLog2=%d: indices %d and %d share a line", chunkLog2, prev, idx)
			}
			lines[addr/64] = idx
		}
	}
}

// TestTableGrowsWithUse: New allocates the table's directory only, so
// a pool sized for a million chunks costs 32 KiB until it carves, not a
// flat table's 8 MiB;
// chunks past the first leaf publish their own leaves and resolve like
// the first leaf's, and an index in a leaf never installed is
// unpublished to both accessors.
func TestTableGrowsWithUse(t *testing.T) {
	const maxChunks = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := newTestPool(Config{ChunkLog2: 0, MaxChunks: maxChunks})
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(40<<10); got > limit {
		t.Errorf("New with %d chunks allocates %d bytes, limit %d (the directory, not the table)", maxChunks, got, limit)
	}
	leaf := uint64(1 << maxLeafLog)
	seen := map[*tnode]uint64{}
	for p.Limit() < 3*leaf {
		idx := mustAlloc(t, p, 0)
		n := p.Get(idx)
		if prev, dup := seen[n]; dup {
			t.Fatalf("indices %d and %d resolve to one node", prev, idx)
		}
		seen[n] = idx
		if p.TryGet(idx) != n {
			t.Fatalf("TryGet(%d) and Get disagree", idx)
		}
	}
	bad := uint64(maxChunks - 1) // the last leaf: never installed
	if p.TryGet(bad) != nil {
		t.Errorf("TryGet(%d) in a leaf never installed is not nil", bad)
	}
	if v := panicOf(func() { p.Get(bad) }); v == nil || !strings.Contains(v.(error).Error(), "unpublished chunk") {
		t.Errorf("Get(%d) in a leaf never installed panicked with %#v, want an unpublished-chunk error", bad, v)
	}
}
