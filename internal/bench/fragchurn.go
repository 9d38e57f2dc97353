package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/alloc"
	"repro/internal/mem"
)

// FragChurn is the mixed-size churn workload behind the `frag`
// experiment: each worker keeps a slot array of live blocks and
// repeatedly frees a random slot and refills it with a block of
// log-uniform random size, so small and large blocks interleave in
// every arena and deallocation order never matches allocation order —
// the pattern that shatters free space in allocators that cannot
// coalesce.
//
// Unlike the other workloads, FragChurn measures space while the final
// live set is still held: the workers park after the timed phase, the
// harness compares the words the allocator holds from the OS layer
// against the words backing live blocks, and only then do the workers
// drain. The gap is external fragmentation plus in-heap metadata —
// free space the allocator retains but cannot return, exactly the
// quantity coalescing exists to bound. The ratio lands in
// Result.ExternalFragRatio.
type FragChurn struct {
	Duration time.Duration // timed churn phase
	Slots    int           // live-set slots per worker (default 256)
	MinSize  uint64        // smallest request, bytes (default 16)
	MaxSize  uint64        // largest request, bytes (default 8192)
}

// Name identifies the workload.
func (w FragChurn) Name() string { return "fragchurn" }

// Run executes the workload.
func (w FragChurn) Run(a alloc.Allocator, threads int) Result {
	slots := w.Slots
	if slots == 0 {
		slots = 256
	}
	minSize, maxSize := w.MinSize, w.MaxSize
	if minSize == 0 {
		minSize = 16
	}
	if maxSize == 0 {
		maxSize = 8192
	}
	logMin, logMax := math.Log(float64(minSize)), math.Log(float64(maxSize))

	ths := make([]alloc.Thread, threads)
	for i := range ths {
		ths[i] = a.NewThread()
	}
	held := make([][]mem.Ptr, threads)
	sizes := make([][]uint64, threads)
	var stop atomic.Bool
	var ops atomic.Uint64

	start := make(chan struct{})
	parked := make(chan struct{})
	var churned, wg sync.WaitGroup
	churned.Add(threads)
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := ths[id]
			rng := rand.New(rand.NewSource(int64(id) + 1))
			draw := func() uint64 {
				return uint64(math.Exp(logMin + rng.Float64()*(logMax-logMin)))
			}
			held[id] = make([]mem.Ptr, slots)
			sizes[id] = make([]uint64, slots)
			<-start
			var n uint64
			for !stop.Load() {
				// Batch between stop checks to keep the flag off the hot path.
				for i := 0; i < 64; i++ {
					k := rng.Intn(slots)
					if !held[id][k].IsNil() {
						th.Free(held[id][k])
					}
					sz := draw()
					p, err := th.Malloc(sz)
					if err != nil {
						panic(fmt.Sprintf("fragchurn: malloc(%d): %v", sz, err))
					}
					held[id][k] = p
					sizes[id][k] = sz
				}
				n += 64
			}
			ops.Add(n)
			churned.Done()
			<-parked // hold the live set while the harness measures
			for _, p := range held[id] {
				if !p.IsNil() {
					th.Free(p)
				}
			}
			if u, ok := th.(alloc.Unregisterer); ok {
				u.Unregister()
			}
		}(g)
	}

	a.Heap().ResetMaxLive()
	t0 := time.Now()
	time.AfterFunc(w.Duration, func() { stop.Store(true) })
	close(start)
	churned.Wait()
	elapsed := time.Since(t0)

	// All workers are parked: the live set is stable, so the in-use
	// word count is exact. UsableWords is the allocator's own account
	// of each block's extent (plus its one-word prefix); a handle
	// without it is charged the rounded-up request instead.
	var inUseWords uint64
	for id, th := range ths {
		sizer, _ := th.(interface{ UsableWords(mem.Ptr) uint64 })
		for k, p := range held[id] {
			if p.IsNil() {
				continue
			}
			if sizer != nil {
				inUseWords += sizer.UsableWords(p) + 1
			} else {
				inUseWords += (sizes[id][k]+mem.WordBytes-1)/mem.WordBytes + 1
			}
		}
	}
	heldWords := a.Heap().Stats().LiveWords

	close(parked)
	wg.Wait()

	r := Result{
		Workload:     w.Name(),
		Allocator:    a.Name(),
		Threads:      threads,
		Ops:          ops.Load(),
		Elapsed:      elapsed,
		MaxLiveBytes: a.Heap().Stats().MaxLiveWords * mem.WordBytes,
		HeldBytes:    heldWords * mem.WordBytes,
		InUseBytes:   inUseWords * mem.WordBytes,
	}
	if heldWords > 0 {
		r.ExternalFragRatio = 1 - float64(inUseWords)/float64(heldWords)
	}
	return r
}
