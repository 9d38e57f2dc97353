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
	for name, l := range map[string]List{"fifo": NewNodes(1000).NewFIFO(), "lifo": NewNodes(1000).NewLIFO()} {
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

// TestListsShareNodes: lists over one Nodes keep their values apart while
// their nodes migrate from list to list, and the bound is on their sum —
// what lets the core give all its size classes one pool.
func TestListsShareNodes(t *testing.T) {
	nodes := NewNodes(256)
	ls := []List{nodes.NewFIFO(), nodes.NewLIFO(), nodes.NewFIFO(), nodes.NewLIFO()}
	const workers, rounds = 4, 20000
	got := make([]map[uint64]bool, workers) // per worker: values it took out
	var put [workers]uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = map[uint64]bool{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				in, out := uint64(i+w)%uint64(len(ls)), uint64(i)%uint64(len(ls))
				// A value names the list it went into, the worker and a sequence.
				if err := ls[in].Put(in<<48 | uint64(w)<<32 | uint64(i+1)); err == nil {
					put[w]++
				} else if !errors.Is(err, pool.ErrExhausted) {
					t.Errorf("Put: %v", err)
					return
				}
				if v, ok := ls[out].Get(); ok {
					if v>>48 != out || got[w][v] {
						t.Errorf("list %d returned %#x (seen before: %v)", out, v, got[w][v])
						return
					}
					got[w][v] = true
				}
			}
		}(w)
	}
	wg.Wait()
	all := map[uint64]bool{}
	for _, m := range got {
		for v := range m {
			if all[v] {
				t.Fatalf("value %#x delivered to two workers", v)
			}
			all[v] = true
		}
	}
	for k, l := range ls {
		for v, ok := l.Get(); ok; v, ok = l.Get() {
			if v>>48 != uint64(k) || all[v] {
				t.Fatalf("draining list %d returned %#x (seen before: %v)", k, v, all[v])
			}
			all[v] = true
		}
	}
	if want := put[0] + put[1] + put[2] + put[3]; uint64(len(all)) != want {
		t.Fatalf("%d values came out, %d went in", len(all), want)
	}

	// One bound for all: what list 0 holds, list 1 cannot.
	n := uint64(0)
	for ; ls[0].Put(n+1) == nil; n++ {
	}
	if n < 192-2 || n > 256 { // whole 64-node chunks less the reserved one and two dummies
		t.Errorf("one list of a 256-node pool held %d values", n)
	}
	if err := ls[1].Put(1); !errors.Is(err, pool.ErrExhausted) {
		t.Fatalf("Put into a second list of a full pool = %v, want pool.ErrExhausted", err)
	}
	if _, ok := ls[0].Get(); !ok {
		t.Fatal("Get from the full list failed")
	}
	if err := ls[1].Put(1); err != nil {
		t.Fatalf("Put into a second list after the first gave a node back: %v", err)
	}
}

// TestNodesCapacity: a pool holds what NewNodes's doc says, maxNodes
// rounded up to whole chunks less one chunk, and not one node more; a
// FIFO's dummy takes one of them.
func TestNodesCapacity(t *testing.T) {
	for _, tc := range []struct{ maxNodes, holds int }{{728, 704}, {64, 64}, {1000, 960}} {
		for name, l := range map[string]List{"lifo": NewNodes(uint64(tc.maxNodes)).NewLIFO(), "fifo": NewNodes(uint64(tc.maxNodes)).NewFIFO()} {
			want := tc.holds
			if name == "fifo" {
				want--
			}
			for i := 0; i < want; i++ {
				if err := l.Put(uint64(i + 1)); err != nil {
					t.Fatalf("NewNodes(%d) %s: Put %d of %d: %v", tc.maxNodes, name, i+1, want, err)
				}
			}
			if err := l.Put(1); !errors.Is(err, pool.ErrExhausted) {
				t.Errorf("NewNodes(%d) %s: Put %d = %v, want pool.ErrExhausted", tc.maxNodes, name, want+1, err)
			}
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
		got := uint64(1 << 62)
		for i := 0; i < 3; i++ { // the least of three: other tests' goroutines allocate too
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			NewNodes(tc.maxNodes).NewFIFO()
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if got > tc.limit {
			t.Errorf("NewNodes(%d).NewFIFO() allocates %d bytes, limit %d", tc.maxNodes, got, tc.limit)
		}
	}
}
