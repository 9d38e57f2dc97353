package bench

import (
	"fmt"

	"repro/alloc"
	"repro/internal/mem"
)

// LinuxScalability is benchmark 1 of Lever & Boreham's "Malloc()
// performance in a multithreaded Linux environment": each thread
// performs Pairs malloc/free pairs of Size-byte blocks in a tight loop.
// It captures allocator latency and scalability under regular private
// allocation (§4.1).
type LinuxScalability struct {
	Pairs int    // malloc/free pairs per thread (paper: 10 million)
	Size  uint64 // block size in bytes (paper: 8)
}

// Name identifies the workload.
func (w LinuxScalability) Name() string { return "linux-scalability" }

// Run executes the workload; Ops counts malloc/free pairs.
func (w LinuxScalability) Run(a alloc.Allocator, threads int) Result {
	return measure(w, a, threads, func(_ int, th alloc.Thread) uint64 {
		for i := 0; i < w.Pairs; i++ {
			p, err := th.Malloc(w.Size)
			if err != nil {
				panic(fmt.Sprintf("linux-scalability: %v", err))
			}
			th.Free(p)
		}
		return uint64(w.Pairs)
	})
}

// Threadtest is the Hoard benchmark of the same name: each thread
// performs Iterations rounds of allocating BlocksPerIter Size-byte
// blocks and then freeing them in allocation order (§4.1).
type Threadtest struct {
	Iterations    int    // paper: 100
	BlocksPerIter int    // paper: 100,000
	Size          uint64 // paper: 8
}

// Name identifies the workload.
func (w Threadtest) Name() string { return "threadtest" }

// Run executes the workload; Ops counts blocks (one malloc + one free).
func (w Threadtest) Run(a alloc.Allocator, threads int) Result {
	return measure(w, a, threads, func(_ int, th alloc.Thread) uint64 {
		blocks := make([]mem.Ptr, w.BlocksPerIter)
		for it := 0; it < w.Iterations; it++ {
			for i := range blocks {
				p, err := th.Malloc(w.Size)
				if err != nil {
					panic(fmt.Sprintf("threadtest: %v", err))
				}
				blocks[i] = p
			}
			for i := range blocks {
				th.Free(blocks[i])
			}
		}
		return uint64(w.Iterations * w.BlocksPerIter)
	})
}

// ActiveFalse is Hoard's Active-false benchmark: each thread performs
// Pairs malloc/free pairs of Size-byte blocks, writing WritesPerWord
// times to each word of the block between malloc and free. If the
// allocator places blocks of different threads on the same cache line,
// the writes induce (actively) false sharing and coherence traffic
// (§4.1; Torrellas et al. [22]).
type ActiveFalse struct {
	Pairs         int    // paper: 10,000
	WritesPerWord int    // paper: 1,000 writes to each byte
	Size          uint64 // paper: 8
}

// Name identifies the workload.
func (w ActiveFalse) Name() string { return "active-false" }

// Run executes the workload; Ops counts malloc/free pairs.
func (w ActiveFalse) Run(a alloc.Allocator, threads int) Result {
	heap := a.Heap()
	return measure(w, a, threads, func(_ int, th alloc.Thread) uint64 {
		words := (w.Size + mem.WordBytes - 1) / mem.WordBytes
		for i := 0; i < w.Pairs; i++ {
			p, err := th.Malloc(w.Size)
			if err != nil {
				panic(fmt.Sprintf("active-false: %v", err))
			}
			for rep := 0; rep < w.WritesPerWord; rep++ {
				for wd := uint64(0); wd < words; wd++ {
					heap.Set(p.Add(wd), uint64(rep))
				}
			}
			th.Free(p)
		}
		return uint64(w.Pairs)
	})
}

// PassiveFalse is Hoard's Passive-false benchmark: like Active-false,
// except that the initial blocks are allocated by one thread and handed
// to the others, which free them immediately and then proceed as in
// Active-false. An allocator that reuses the handed-over (shared cache
// line) memory for the recipients' subsequent allocations induces
// false sharing passively (§4.1).
type PassiveFalse struct {
	Pairs         int
	WritesPerWord int
	Size          uint64
}

// Name identifies the workload.
func (w PassiveFalse) Name() string { return "passive-false" }

// Run executes the workload; Ops counts malloc/free pairs.
func (w PassiveFalse) Run(a alloc.Allocator, threads int) Result {
	// Setup (untimed): thread 0 allocates one block per worker.
	setup := a.NewThread()
	handed := make([]mem.Ptr, threads)
	for i := range handed {
		p, err := setup.Malloc(w.Size)
		if err != nil {
			panic(fmt.Sprintf("passive-false: %v", err))
		}
		handed[i] = p
	}
	heap := a.Heap()
	return measure(w, a, threads, func(id int, th alloc.Thread) uint64 {
		// Free the handed-over block first, seeding this thread's
		// allocator state with memory from the producer's cache lines.
		th.Free(handed[id])
		words := (w.Size + mem.WordBytes - 1) / mem.WordBytes
		for i := 0; i < w.Pairs; i++ {
			p, err := th.Malloc(w.Size)
			if err != nil {
				panic(fmt.Sprintf("passive-false: %v", err))
			}
			for rep := 0; rep < w.WritesPerWord; rep++ {
				for wd := uint64(0); wd < words; wd++ {
					heap.Set(p.Add(wd), uint64(rep))
				}
			}
			th.Free(p)
		}
		return uint64(w.Pairs)
	})
}
