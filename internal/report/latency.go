package report

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
)

// rawSyncCosts measures the contention-free cost of a mutex
// lock/unlock pair and of a single successful CAS, the paper's §4.2.1
// micro-datum (165 ns lock pair on POWER4) used to argue that no
// lock-based allocator can beat the lock-free one's latency. Each comes
// back as the Result of its loop, named in the Allocator field.
func rawSyncCosts() []bench.Result {
	const iters = 2_000_000
	var mu sync.Mutex
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		mu.Lock()
		//lint:ignore SA2001 intentionally empty critical section
		mu.Unlock()
	}
	lock := bench.Result{Allocator: "(mutex lock+unlock)", Threads: 1, Ops: iters, Elapsed: time.Since(t0)}

	var v atomic.Uint64
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		v.CompareAndSwap(uint64(i), uint64(i+1))
	}
	cas := bench.Result{Allocator: "(single CAS)", Threads: 1, Ops: iters, Elapsed: time.Since(t0)}
	return []bench.Result{lock, cas}
}
