package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/alloc"
	"repro/internal/mem"
)

// ProducerConsumer is the paper's lock-free producer-consumer benchmark
// (§4.1): one producer and t−1 consumers share a lock-free FIFO queue
// whose nodes come from the allocator under test. For each task the
// producer selects 10–20 random indexes into a database, allocates a
// block to record them (40–80 bytes), a 32-byte task structure, and a
// 16-byte queue node, and enqueues the task (3 mallocs). A consumer
// dequeues a task, builds a histogram from the database entries named
// by the task, performs Work units of local work, and frees the queue
// node, the task, the index block, and its histogram block (1 malloc +
// 4 frees). When the queue exceeds 1000 tasks (the paper's threshold),
// the producer helps by consuming one task itself.
//
// The benchmark measures how many tasks are completed in Duration; it
// captures robustness under the producer-consumer sharing pattern,
// where threads free blocks allocated by other threads.
type ProducerConsumer struct {
	Duration time.Duration // paper: 30 s
	Work     int           // local work per task (paper: 500/750/1000)
	DBSize   int           // database entries (paper: 1,000,000)
}

// Name identifies the workload.
func (w ProducerConsumer) Name() string { return "producer-consumer" }

const (
	taskBytes = 32 // paper's fixed task structure size
	histBytes = 64 // consumer's per-task histogram block
	histWords = histBytes / mem.WordBytes
)

// Run executes the workload with 1 producer and threads−1 consumers
// (threads == 1 runs producer-only with self-consumption, the
// degenerate contention-free case).
func (w ProducerConsumer) Run(a alloc.Allocator, threads int) Result {
	dbSize := w.DBSize
	if dbSize == 0 {
		dbSize = 1 << 20
	}
	const help = 1000
	// The database is application memory, not allocator-managed.
	db := make([]uint64, dbSize)
	rng := rand.New(rand.NewSource(3))
	for i := range db {
		db[i] = rng.Uint64()
	}

	setup := a.NewThread()
	q := NewQueue(a, setup)
	heap := a.Heap()

	var stop atomic.Bool
	timer := time.AfterFunc(w.Duration, func() { stop.Store(true) })
	defer timer.Stop()
	var producerDone atomic.Bool

	// consume processes one task: histogram + local work + 3 frees
	// (the 4th free, the queue node, happened in Dequeue).
	//
	// Payload access goes through Load/Store throughout this benchmark:
	// blocks here are recycled through the same storage as the lock-free
	// queue's nodes, whose intentionally stale readers may examine any
	// word a recycled block now owns (see chunkheap's link-accessor note).
	consume := func(th alloc.Thread, task mem.Ptr) {
		idxBlock := mem.Ptr(heap.Load(task))
		n := heap.Load(task.Add(1))
		hist, err := th.Malloc(histBytes)
		if err != nil {
			panic(fmt.Sprintf("producer-consumer: %v", err))
		}
		for i := uint64(0); i < histWords; i++ {
			heap.Store(hist.Add(i), 0)
		}
		for i := uint64(0); i < n; i++ {
			word := heap.Load(idxBlock.Add(i / 2))
			idx := uint32(word)
			if i%2 == 1 {
				idx = uint32(word >> 32)
			}
			v := db[idx]
			b := v % histWords
			heap.Store(hist.Add(b), heap.Load(hist.Add(b))+1)
		}
		sink := uint64(0)
		for i := 0; i < w.Work; i++ {
			sink = sink*2862933555777941757 + 3037000493
		}
		heap.Store(hist, heap.Load(hist)^sink) // defeat dead-code elimination
		th.Free(hist)
		th.Free(idxBlock)
		th.Free(task)
	}

	produce := func(th alloc.Thread, r *rand.Rand) {
		nIdx := uint64(10 + r.Intn(11)) // 10..20 indexes
		idxWords := (nIdx + 1) / 2
		idxBlock, err := th.Malloc(idxWords * mem.WordBytes) // 40..80 bytes
		if err != nil {
			panic(fmt.Sprintf("producer-consumer: %v", err))
		}
		for i := uint64(0); i < idxWords; i++ {
			lo := uint64(uint32(r.Intn(dbSize)))
			hi := uint64(uint32(r.Intn(dbSize)))
			heap.Store(idxBlock.Add(i), hi<<32|lo)
		}
		task, err := th.Malloc(taskBytes)
		if err != nil {
			panic(fmt.Sprintf("producer-consumer: %v", err))
		}
		heap.Store(task, uint64(idxBlock))
		heap.Store(task.Add(1), nIdx)
		q.Enqueue(th, uint64(task)) // third malloc: the queue node
	}

	res := measure(w, a, threads, func(id int, th alloc.Thread) uint64 {
		var tasks uint64
		if id == 0 { // producer
			r := rand.New(rand.NewSource(17))
			for !stop.Load() {
				produce(th, r)
				if q.Len() > help || threads == 1 {
					if task, ok := q.Dequeue(th); ok {
						consume(th, mem.Ptr(task))
						tasks++
					}
				}
			}
			producerDone.Store(true)
			return tasks
		}
		// consumer
		for {
			task, ok := q.Dequeue(th)
			if !ok {
				if producerDone.Load() {
					// Final drain: the queue is empty and no more
					// tasks are coming.
					if task, ok := q.Dequeue(th); ok {
						consume(th, mem.Ptr(task))
						tasks++
						continue
					}
					return tasks
				}
				runtime.Gosched() // let the producer run (matters on few cores)
				continue
			}
			consume(th, mem.Ptr(task))
			tasks++
		}
	})
	return res
}
