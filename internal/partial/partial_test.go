package partial

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/pool"
)

func lists() map[string]func() List {
	return map[string]func() List{
		"FIFO": func() List { return NewFIFO() },
		"LIFO": func() List { return NewLIFO() },
	}
}

func TestEmptyGet(t *testing.T) {
	for name, mk := range lists() {
		l := mk()
		if v, ok := l.Get(); ok {
			t.Errorf("%s: Get on empty returned %d", name, v)
		}
		if l.Len() != 0 {
			t.Errorf("%s: Len = %d", name, l.Len())
		}
	}
}

func TestPutGetSingle(t *testing.T) {
	for name, mk := range lists() {
		l := mk()
		l.Put(42)
		if l.Len() != 1 {
			t.Errorf("%s: Len = %d, want 1", name, l.Len())
		}
		v, ok := l.Get()
		if !ok || v != 42 {
			t.Errorf("%s: Get = (%d, %v)", name, v, ok)
		}
		if _, ok := l.Get(); ok {
			t.Errorf("%s: list not empty after drain", name)
		}
	}
}

func TestPutZeroPanics(t *testing.T) {
	for name, mk := range lists() {
		l := mk()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Put(0) did not panic", name)
				}
			}()
			l.Put(0)
		}()
	}
}

func TestFIFOOrder(t *testing.T) {
	q := NewFIFO()
	for i := uint64(1); i <= 100; i++ {
		q.Put(i)
	}
	for i := uint64(1); i <= 100; i++ {
		v, ok := q.Get()
		if !ok || v != i {
			t.Fatalf("Get = (%d, %v), want %d", v, ok, i)
		}
	}
}

func TestLIFOOrder(t *testing.T) {
	s := NewLIFO()
	for i := uint64(1); i <= 100; i++ {
		s.Put(i)
	}
	for i := uint64(100); i >= 1; i-- {
		v, ok := s.Get()
		if !ok || v != i {
			t.Fatalf("Get = (%d, %v), want %d", v, ok, i)
		}
	}
}

func TestInterleavedPutGet(t *testing.T) {
	for name, mk := range lists() {
		l := mk()
		seen := map[uint64]bool{}
		next := uint64(1)
		for round := 0; round < 50; round++ {
			for i := 0; i < round%7+1; i++ {
				l.Put(next)
				next++
			}
			for i := 0; i < round%5; i++ {
				if v, ok := l.Get(); ok {
					if seen[v] {
						t.Fatalf("%s: duplicate value %d", name, v)
					}
					seen[v] = true
				}
			}
		}
		for {
			v, ok := l.Get()
			if !ok {
				break
			}
			if seen[v] {
				t.Fatalf("%s: duplicate value %d on drain", name, v)
			}
			seen[v] = true
		}
		if uint64(len(seen)) != next-1 {
			t.Errorf("%s: drained %d values, put %d", name, len(seen), next-1)
		}
	}
}

func TestFIFOOrderProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		q := NewFIFO()
		var want []uint64
		for _, v := range vals {
			x := uint64(v) + 1
			q.Put(x)
			want = append(want, x)
		}
		for _, w := range want {
			v, ok := q.Get()
			if !ok || v != w {
				return false
			}
		}
		_, ok := q.Get()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNodeReuse(t *testing.T) {
	// Repeated put/get cycles should recycle pool nodes rather than
	// grow the pool: the pool bump counter stops advancing.
	q := NewFIFO()
	for i := 0; i < 10; i++ {
		q.Put(1)
		q.Get()
	}
	before := q.pool.Limit()
	for i := 0; i < 10000; i++ {
		q.Put(1)
		q.Get()
	}
	after := q.pool.Limit()
	if after != before {
		t.Errorf("pool grew from %d to %d under steady-state put/get", before, after)
	}
}

func TestConcurrentFIFO(t *testing.T) {
	testConcurrent(t, NewFIFO())
}

func TestConcurrentLIFO(t *testing.T) {
	testConcurrent(t, NewLIFO())
}

// testConcurrent checks that under concurrent Put/Get every value is
// delivered exactly once (no loss, no duplication) — the core safety
// property for partial-superblock lists, where losing a descriptor
// leaks a superblock and duplicating one double-allocates blocks.
func testConcurrent(t *testing.T, l List) {
	const producers = 4
	const consumers = 4
	const perProducer = 20000
	var wg sync.WaitGroup
	results := make(chan uint64, producers*perProducer)
	var done sync.WaitGroup

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				l.Put(uint64(p*perProducer+i) + 1)
			}
		}(p)
	}
	stop := make(chan struct{})
	for c := 0; c < consumers; c++ {
		done.Add(1)
		go func() {
			defer done.Done()
			for {
				if v, ok := l.Get(); ok {
					results <- v
					continue
				}
				select {
				case <-stop:
					// Final drain after producers finish.
					for {
						v, ok := l.Get()
						if !ok {
							return
						}
						results <- v
					}
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	done.Wait()
	close(results)

	seen := make(map[uint64]bool, producers*perProducer)
	for v := range results {
		if seen[v] {
			t.Fatalf("value %d delivered twice", v)
		}
		seen[v] = true
	}
	if len(seen) != producers*perProducer {
		t.Fatalf("delivered %d values, want %d", len(seen), producers*perProducer)
	}
}

func TestFIFOPerProducerOrder(t *testing.T) {
	// FIFO queues must preserve each producer's own order even under
	// concurrency (linearizability of enqueue).
	q := NewFIFO()
	const producers = 3
	const perProducer = 10000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p uint64) {
			defer wg.Done()
			for i := uint64(0); i < perProducer; i++ {
				q.Put(p<<32 | (i + 1))
			}
		}(uint64(p))
	}
	wg.Wait()
	last := make([]uint64, producers)
	for {
		v, ok := q.Get()
		if !ok {
			break
		}
		p := v >> 32
		seq := v & 0xffffffff
		if seq <= last[p] {
			t.Fatalf("producer %d: sequence %d after %d", p, seq, last[p])
		}
		last[p] = seq
	}
	for p, l := range last {
		if l != perProducer {
			t.Errorf("producer %d: drained up to %d, want %d", p, l, perProducer)
		}
	}
}

// TestCapBoundsTheNodePool: a list built for maxNodes values holds about
// that many (whole chunks, less the reserved first one) and then fails
// Put with the pool's typed error instead of growing; what it holds
// still comes out intact, and room freed by Get is reusable.
func TestCapBoundsTheNodePool(t *testing.T) {
	for name, l := range map[string]List{"fifo": NewFIFOCap(1000), "lifo": NewLIFOCap(1000)} {
		var n uint64
		var err error
		for err == nil && n < 5000 {
			n++
			err = l.Put(n)
		}
		if !errors.Is(err, pool.ErrExhausted) {
			t.Fatalf("%s: Put #%d = %v, want pool.ErrExhausted near 1000", name, n, err)
		}
		if held := n - 1; held < 900 || held > 1024 {
			t.Errorf("%s: held %d values before exhaustion, want about 1000", name, held)
		}
		seen := map[uint64]bool{}
		for v, ok := l.Get(); ok; v, ok = l.Get() {
			if v == 0 || v >= n || seen[v] {
				t.Fatalf("%s: Get returned %d (duplicate=%v)", name, v, seen[v])
			}
			seen[v] = true
		}
		if uint64(len(seen)) != n-1 {
			t.Errorf("%s: got %d values back, put %d", name, len(seen), n-1)
		}
		if err := l.Put(7); err != nil {
			t.Errorf("%s: Put after draining: %v", name, err)
		}
	}
}

// TestUpFrontFootprint pins what an empty list allocates: the node-pool
// chunk table used to be 512 KiB a list whatever the capacity.
func TestUpFrontFootprint(t *testing.T) {
	for _, tc := range []struct {
		maxNodes uint64
		limit    uint64 // bytes
	}{{DefaultNodes, 100 << 10}, {1 << 23, 68 << 10}, {1 << 15, 6 << 10}, {64, 2 << 10}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		NewFIFOCap(tc.maxNodes)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.limit {
			t.Errorf("NewFIFOCap(%d) allocates %d bytes, limit %d", tc.maxNodes, got, tc.limit)
		}
	}
}
