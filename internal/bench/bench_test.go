package bench

import (
	"testing"
	"time"

	"repro/alloc"
	"repro/internal/mem"
)

func testOptions() alloc.Options {
	return alloc.Options{
		Processors: 4,
		HeapConfig: mem.Config{TotalWordsLog2: 28},
	}
}

func allAllocators(t *testing.T) []alloc.Allocator {
	t.Helper()
	var out []alloc.Allocator
	for _, name := range alloc.Names() {
		a, err := alloc.New(name, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

// checkLockFreeInvariants validates the lock-free allocator's internal
// structure after a workload, when applicable.
func checkLockFreeInvariants(t *testing.T, a alloc.Allocator) {
	t.Helper()
	if ca, ok := a.(alloc.CoreAccessor); ok {
		if err := ca.Core().CheckInvariants(-1); err != nil {
			t.Errorf("%s invariants: %v", a.Name(), err)
		}
	}
}

func TestLinuxScalabilityAllAllocators(t *testing.T) {
	w := LinuxScalability{Pairs: 5000, Size: 8}
	for _, a := range allAllocators(t) {
		for _, threads := range []int{1, 4} {
			r := w.Run(a, threads)
			want := uint64(threads * w.Pairs)
			if r.Ops != want {
				t.Errorf("%s t=%d: ops = %d, want %d", a.Name(), threads, r.Ops, want)
			}
			if r.OpsPerSec() <= 0 {
				t.Errorf("%s: nonpositive throughput", a.Name())
			}
		}
		checkLockFreeInvariants(t, a)
	}
}

func TestThreadtestAllAllocators(t *testing.T) {
	w := Threadtest{Iterations: 5, BlocksPerIter: 2000, Size: 8}
	for _, a := range allAllocators(t) {
		r := w.Run(a, 4)
		if r.Ops != 4*5*2000 {
			t.Errorf("%s: ops = %d", a.Name(), r.Ops)
		}
		checkLockFreeInvariants(t, a)
	}
}

func TestActiveFalseAllAllocators(t *testing.T) {
	w := ActiveFalse{Pairs: 500, WritesPerWord: 50, Size: 8}
	for _, a := range allAllocators(t) {
		r := w.Run(a, 4)
		if r.Ops != 4*500 {
			t.Errorf("%s: ops = %d", a.Name(), r.Ops)
		}
		checkLockFreeInvariants(t, a)
	}
}

func TestPassiveFalseAllAllocators(t *testing.T) {
	w := PassiveFalse{Pairs: 500, WritesPerWord: 50, Size: 8}
	for _, a := range allAllocators(t) {
		r := w.Run(a, 4)
		if r.Ops != 4*500 {
			t.Errorf("%s: ops = %d", a.Name(), r.Ops)
		}
		checkLockFreeInvariants(t, a)
	}
}

func TestLarsonAllAllocators(t *testing.T) {
	w := Larson{
		Duration:        100 * time.Millisecond,
		BlocksPerThread: 64,
		MinSize:         16,
		MaxSize:         80,
	}
	for _, a := range allAllocators(t) {
		r := w.Run(a, 4)
		if r.Ops == 0 {
			t.Errorf("%s: no pairs performed", a.Name())
		}
		checkLockFreeInvariants(t, a)
	}
}

func TestFragChurnAllAllocators(t *testing.T) {
	w := FragChurn{Duration: 20 * time.Millisecond, Slots: 64, MinSize: 16, MaxSize: 4096}
	for _, a := range allAllocators(t) {
		r := w.Run(a, 4)
		if r.Ops == 0 || r.Ops%64 != 0 {
			t.Errorf("%s: ops = %d, want a positive multiple of the 64-op batch", a.Name(), r.Ops)
		}
		if r.HeldBytes == 0 || r.InUseBytes == 0 {
			t.Errorf("%s: space columns empty: held=%d inUse=%d", a.Name(), r.HeldBytes, r.InUseBytes)
		}
		if r.InUseBytes > r.HeldBytes {
			t.Errorf("%s: in-use %d exceeds held %d — UsableWords accounting broken", a.Name(), r.InUseBytes, r.HeldBytes)
		}
		if r.ExternalFragRatio < 0 || r.ExternalFragRatio >= 1 {
			t.Errorf("%s: ExternalFragRatio = %v, want [0,1)", a.Name(), r.ExternalFragRatio)
		}
		// Everything is freed again: each backend's strict check applies.
		if err := alloc.HarnessOf(a).Inspect(0).InvariantErr; err != nil {
			t.Errorf("%s invariants after drain: %v", a.Name(), err)
		}
	}
}

func TestProducerConsumerAllAllocators(t *testing.T) {
	w := ProducerConsumer{
		Duration: 150 * time.Millisecond,
		Work:     100,
		DBSize:   1 << 12,
	}
	for _, a := range allAllocators(t) {
		for _, threads := range []int{1, 3} {
			r := w.Run(a, threads)
			if r.Ops == 0 {
				t.Errorf("%s t=%d: no tasks completed", a.Name(), threads)
			}
		}
		checkLockFreeInvariants(t, a)
	}
}

func TestProducerConsumerConservation(t *testing.T) {
	// Every produced task must be consumed exactly once: after the
	// run, the lock-free allocator's live small blocks must be only
	// the queue's dummy node (tasks/index/hist blocks all freed).
	a := alloc.NewLockFree(testOptions())
	w := ProducerConsumer{Duration: 150 * time.Millisecond, Work: 50, DBSize: 1 << 10}
	w.Run(a, 3)
	ca := a.(alloc.CoreAccessor).Core()
	if err := ca.CheckInvariants(1); err != nil { // 1 = the dummy node
		t.Error(err)
	}
}

func TestQueueFIFO(t *testing.T) {
	a := alloc.NewLockFree(testOptions())
	th := a.NewThread()
	q := NewQueue(a, th)
	if _, ok := q.Dequeue(th); ok {
		t.Fatal("empty queue dequeued")
	}
	for i := uint64(1); i <= 100; i++ {
		q.Enqueue(th, i)
	}
	if q.Len() != 100 {
		t.Errorf("Len = %d", q.Len())
	}
	for i := uint64(1); i <= 100; i++ {
		v, ok := q.Dequeue(th)
		if !ok || v != i {
			t.Fatalf("Dequeue = (%d, %v), want %d", v, ok, i)
		}
	}
	if _, ok := q.Dequeue(th); ok {
		t.Fatal("drained queue dequeued")
	}
}

func TestQueueNodesRecycled(t *testing.T) {
	a := alloc.NewLockFree(testOptions())
	th := a.NewThread()
	q := NewQueue(a, th)
	for i := 0; i < 10000; i++ {
		q.Enqueue(th, uint64(i)+1)
		q.Dequeue(th)
	}
	// Steady-state enqueue/dequeue must not grow the heap.
	live := a.Heap().Stats().LiveWords
	if live > 4096 {
		t.Errorf("LiveWords = %d after steady-state queue churn", live)
	}
}

func TestResultSpeedup(t *testing.T) {
	base := Result{Ops: 100, Elapsed: time.Second}
	fast := Result{Ops: 300, Elapsed: time.Second}
	if s := fast.SpeedupOver(base); s < 2.99 || s > 3.01 {
		t.Errorf("speedup = %v, want 3", s)
	}
	if base.SpeedupOver(Result{}) != 0 {
		t.Error("speedup over zero baseline should be 0")
	}
}

func TestMaxLiveTracking(t *testing.T) {
	a := alloc.NewLockFree(testOptions())
	w := Threadtest{Iterations: 2, BlocksPerIter: 5000, Size: 8}
	r := w.Run(a, 2)
	// At least one thread's 5000 live 16-byte blocks must be resident
	// at peak: ≥ 5 superblocks (80 KB). (With few cores the two
	// threads' peaks may not overlap in time, so 2× is not guaranteed.)
	if r.MaxLiveBytes < 80*1024 {
		t.Errorf("MaxLiveBytes = %d, implausibly low", r.MaxLiveBytes)
	}
}
