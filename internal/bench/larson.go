package bench

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/alloc"
	"repro/internal/mem"
)

// Larson is the server-simulation benchmark of Larson & Krishnan
// ("Memory allocation for long-running server applications", ISMM
// 1998), as used in §4.1: initially one thread allocates and frees
// random-sized blocks (MinSize..MaxSize bytes) in random order, then an
// equal number of blocks (BlocksPerThread) is handed over to each
// worker. In the timed parallel phase each worker repeatedly selects a
// random slot, frees the block there, and allocates a new random-sized
// block in its place. Ops counts free/malloc pairs performed in the
// parallel phase.
//
// Larson captures the robustness of malloc's latency and scalability
// under irregular allocation with respect to block size and
// deallocation order over a long period.
type Larson struct {
	Duration        time.Duration // paper: 30 s
	BlocksPerThread int           // paper: 1024
	MinSize         uint64        // paper: 16
	MaxSize         uint64        // paper: 80
}

// Name identifies the workload.
func (w Larson) Name() string { return "larson" }

// Run executes the workload.
func (w Larson) Run(a alloc.Allocator, threads int) Result {
	const churn = 4 // initial random malloc/free pairs per slot
	// Setup phase (untimed): one thread allocates and frees random
	// blocks in random order, then fills each worker's slot array.
	setup := a.NewThread()
	rng := rand.New(rand.NewSource(1))
	randSize := func(r *rand.Rand) uint64 {
		return w.MinSize + uint64(r.Int63n(int64(w.MaxSize-w.MinSize+1)))
	}
	scratch := make([]mem.Ptr, 0, w.BlocksPerThread)
	for i := 0; i < threads*w.BlocksPerThread*churn/(w.BlocksPerThread); i++ {
		p, err := setup.Malloc(randSize(rng))
		if err != nil {
			panic(fmt.Sprintf("larson setup: %v", err))
		}
		scratch = append(scratch, p)
		if len(scratch) == cap(scratch) {
			rng.Shuffle(len(scratch), func(i, j int) { scratch[i], scratch[j] = scratch[j], scratch[i] })
			for _, q := range scratch {
				setup.Free(q)
			}
			scratch = scratch[:0]
		}
	}
	for _, q := range scratch {
		setup.Free(q)
	}
	slots := make([][]mem.Ptr, threads)
	for t := range slots {
		slots[t] = make([]mem.Ptr, w.BlocksPerThread)
		for i := range slots[t] {
			p, err := setup.Malloc(randSize(rng))
			if err != nil {
				panic(fmt.Sprintf("larson setup: %v", err))
			}
			slots[t][i] = p
		}
	}

	var stop atomic.Bool
	timer := time.AfterFunc(w.Duration, func() { stop.Store(true) })
	defer timer.Stop()

	res := measure(w, a, threads, func(id int, th alloc.Thread) uint64 {
		r := rand.New(rand.NewSource(int64(id) + 2))
		mine := slots[id]
		var pairs uint64
		for !stop.Load() {
			// Batch between stop checks to keep the flag off the hot path.
			for k := 0; k < 128; k++ {
				i := r.Intn(len(mine))
				th.Free(mine[i])
				p, err := th.Malloc(randSize(r))
				if err != nil {
					panic(fmt.Sprintf("larson: %v", err))
				}
				mine[i] = p
			}
			pairs += 128
		}
		return pairs
	})

	// Teardown (untimed): release the slot arrays.
	for t := range slots {
		for _, p := range slots[t] {
			setup.Free(p)
		}
	}
	return res
}
