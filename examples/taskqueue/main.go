// Taskqueue: the paper's closing argument (§5) is that a lock-free
// allocator makes lock-free dynamic data structures *fully* dynamic —
// nodes can be malloc'd and free'd without compromising lock-freedom.
// This example builds a Michael–Scott lock-free FIFO queue whose nodes
// are allocator blocks, then runs a one-producer/many-consumer pipeline
// over it (the §4.1 producer-consumer workload in miniature).
//
//	go run ./examples/taskqueue
package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/alloc"
	"repro/internal/mem"
)

// queue is a lock-free MS queue over allocator blocks. A node is a
// 16-byte block: word 0 = value, word 1 = packed (next pointer, tag).
// The 24-bit tag prevents ABA when the allocator recycles freed nodes.
type queue struct {
	heap *mem.Heap
	head atomic.Uint64
	tail atomic.Uint64
}

const (
	ptrBits = 40
	ptrMask = 1<<ptrBits - 1
)

func pack(p mem.Ptr, tag uint64) uint64 { return uint64(p)&ptrMask | tag<<ptrBits }
func unpack(w uint64) (mem.Ptr, uint64) { return mem.Ptr(w & ptrMask), w >> ptrBits }

func newQueue(a alloc.Allocator, th alloc.Thread) *queue {
	q := &queue{heap: a.Heap()}
	dummy, err := th.Malloc(16)
	if err != nil {
		panic(err)
	}
	q.heap.Store(dummy.Add(1), 0)
	q.head.Store(pack(dummy, 0))
	q.tail.Store(pack(dummy, 0))
	return q
}

func (q *queue) enqueue(th alloc.Thread, v uint64) {
	n, err := th.Malloc(16)
	if err != nil {
		panic(err)
	}
	q.heap.Store(n, v)
	_, oldTag := unpack(q.heap.Load(n.Add(1)))
	q.heap.Store(n.Add(1), pack(0, oldTag+1))
	for {
		tailW := q.tail.Load()
		tail, tTag := unpack(tailW)
		nextW := q.heap.Load(tail.Add(1))
		next, nTag := unpack(nextW)
		if tailW != q.tail.Load() {
			continue
		}
		if next.IsNil() {
			if q.heap.CAS(tail.Add(1), nextW, pack(n, nTag+1)) {
				q.tail.CompareAndSwap(tailW, pack(n, tTag+1))
				return
			}
		} else {
			q.tail.CompareAndSwap(tailW, pack(next, tTag+1))
		}
	}
}

func (q *queue) dequeue(th alloc.Thread) (uint64, bool) {
	for {
		headW := q.head.Load()
		head, hTag := unpack(headW)
		tailW := q.tail.Load()
		tail, tTag := unpack(tailW)
		next, _ := unpack(q.heap.Load(head.Add(1)))
		if headW != q.head.Load() {
			continue
		}
		if head == tail {
			if next.IsNil() {
				return 0, false
			}
			q.tail.CompareAndSwap(tailW, pack(next, tTag+1))
			continue
		}
		v := q.heap.Load(next)
		if q.head.CompareAndSwap(headW, pack(next, hTag+1)) {
			th.Free(head) // the retired dummy goes back to the allocator
			return v, true
		}
	}
}

func main() {
	a, err := alloc.New("lockfree", alloc.Options{Processors: 4})
	if err != nil {
		panic(err)
	}
	heap := a.Heap()
	setup := a.NewThread()
	q := newQueue(a, setup)

	const tasks = 200000
	consumers := runtime.GOMAXPROCS(0)
	if consumers < 2 {
		consumers = 2
	}

	var produced, consumed, checksum atomic.Uint64
	var wg sync.WaitGroup
	var done atomic.Bool

	// Producer: each task is itself an allocator block carrying a
	// payload the consumers verify.
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := a.NewThread()
		for i := uint64(1); i <= tasks; i++ {
			task, err := th.Malloc(32)
			if err != nil {
				panic(err)
			}
			heap.Set(task, i) // payload
			heap.Set(task.Add(1), i*i)
			q.enqueue(th, uint64(task))
			produced.Add(1)
		}
		done.Store(true)
	}()

	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := a.NewThread()
			for {
				v, ok := q.dequeue(th)
				if !ok {
					if done.Load() {
						if v, ok := q.dequeue(th); ok {
							consumeTask(heap, th, v, &consumed, &checksum)
							continue
						}
						return
					}
					runtime.Gosched()
					continue
				}
				consumeTask(heap, th, v, &consumed, &checksum)
			}
		}()
	}
	wg.Wait()

	fmt.Printf("produced=%d consumed=%d checksum=%d\n",
		produced.Load(), consumed.Load(), checksum.Load())
	if consumed.Load() != tasks {
		panic("task loss or duplication")
	}
	var want uint64
	for i := uint64(1); i <= tasks; i++ {
		want += i
	}
	if checksum.Load() != want {
		panic("payload corruption across the queue")
	}
	fmt.Println("all tasks delivered exactly once with intact payloads")
}

func consumeTask(heap *mem.Heap, th alloc.Thread, v uint64, consumed, checksum *atomic.Uint64) {
	task := mem.Ptr(v)
	i := heap.Get(task)
	if heap.Get(task.Add(1)) != i*i {
		panic("corrupted task payload")
	}
	checksum.Add(i)
	th.Free(task)
	consumed.Add(1)
}
