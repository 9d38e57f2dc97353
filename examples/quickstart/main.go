// Quickstart: construct the lock-free allocator, allocate and free
// blocks from several goroutines, and print the allocator's census.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"sync"

	"repro/alloc"
	"repro/internal/mem"
)

func main() {
	// One allocator per process; Processors sizes the per-size-class
	// processor heaps (defaults to GOMAXPROCS).
	a, err := alloc.New("lockfree", alloc.Options{Processors: 4})
	if err != nil {
		panic(err)
	}
	heap := a.Heap()

	// Single-threaded use: a Thread handle is this goroutine's
	// identity, like a pthread's id in the paper.
	t := a.NewThread()
	p, err := t.Malloc(64) // 64 payload bytes = 8 words
	if err != nil {
		panic(err)
	}
	// Payload access goes through the simulated heap.
	for i := uint64(0); i < 8; i++ {
		heap.Set(p.Add(i), i*i)
	}
	fmt.Printf("allocated %v, payload[3] = %d\n", p, heap.Get(p.Add(3)))
	t.Free(p)
	release(t)

	// Multi-threaded use: each goroutine takes its own handle. Blocks
	// may be freed by a different thread than allocated them (the
	// producer-consumer pattern the paper§4.2.3 stresses).
	const workers = 4
	const blocksEach = 100000
	var wg sync.WaitGroup
	ch := make(chan mem.Ptr, 1024)
	wg.Add(1)
	go func() { // producer
		defer wg.Done()
		th := a.NewThread()
		defer release(th)
		for i := 0; i < workers*blocksEach; i++ {
			p, err := th.Malloc(48)
			if err != nil {
				panic(err)
			}
			heap.Set(p, uint64(i))
			ch <- p
		}
		close(ch)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() { // consumers free remotely
			defer wg.Done()
			th := a.NewThread()
			defer release(th)
			for p := range ch {
				_ = heap.Get(p)
				th.Free(p)
			}
		}()
	}
	wg.Wait()

	// Counters and inventory, for this or any other alloc.New backend:
	// which path served the mallocs, what each layer still holds.
	alloc.HarnessOf(a).Census().WriteText(os.Stdout)
}

// release is what a goroutine does with its handle when it is done
// (the pthread-exit analogue): the lock-free allocator then returns the
// handle's cached blocks.
func release(th alloc.Thread) {
	if u, ok := th.(alloc.Unregisterer); ok {
		u.Unregister()
	}
}
