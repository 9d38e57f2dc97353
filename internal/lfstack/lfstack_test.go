package lfstack

import (
	"sync"
	"sync/atomic"
	"testing"
)

// sliceLinks is a Links over a plain slice (atomic because pushers and
// poppers race on link words in the tagged algorithm).
type sliceLinks struct {
	words []atomic.Uint64
}

func newSliceLinks(n int) *sliceLinks {
	return &sliceLinks{words: make([]atomic.Uint64, n)}
}

func (l *sliceLinks) LoadLink(idx uint64) uint64 { return l.words[idx].Load() }
func (l *sliceLinks) StoreLink(idx, next uint64) { l.words[idx].Store(next) }

func TestTaggedLIFO(t *testing.T) {
	s := NewTagged(newSliceLinks(128))
	if _, ok := s.Pop(); ok {
		t.Fatal("empty pop succeeded")
	}
	for i := uint64(1); i <= 100; i++ {
		s.Push(i)
	}
	if s.Len() != 100 {
		t.Errorf("Len = %d", s.Len())
	}
	for i := uint64(100); i >= 1; i-- {
		v, ok := s.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = (%d, %v), want %d", v, ok, i)
		}
	}
}

func TestTaggedPushZeroPanics(t *testing.T) {
	s := NewTagged(newSliceLinks(4))
	defer func() {
		if recover() == nil {
			t.Error("Push(0) did not panic")
		}
	}()
	s.Push(0)
}

func TestTaggedConcurrentConservation(t *testing.T) {
	const n = 1024
	s := NewTagged(newSliceLinks(n + 1))
	for i := uint64(1); i <= n; i++ {
		s.Push(i)
	}
	// Goroutines pop and re-push; every index must remain present
	// exactly once at the end (the invariant the ABA tag protects).
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				if v, ok := s.Pop(); ok {
					s.Push(v)
				}
			}
		}()
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for {
		v, ok := s.Pop()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("index %d present twice (ABA corruption)", v)
		}
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("drained %d indices, want %d", len(seen), n)
	}
}
