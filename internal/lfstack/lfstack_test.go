package lfstack

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/atomicx"
)

// sliceLinks is Links over a plain slice (atomic because pushers and
// poppers race on link words in the tagged algorithm).
type sliceLinks []atomic.Uint64

func (l sliceLinks) Next(idx uint64) uint64   { return l[idx].Load() }
func (l sliceLinks) SetNext(idx, next uint64) { l[idx].Store(next) }

// nearWrap is a head tag a handful of successful operations short of
// wrapping to 0.
const nearWrap = 1<<atomicx.TaggedTagBits - 4

// seedTag sets an empty stack's head tag.
func seedTag(s *Stack, tag uint64) { s.head.Store(atomicx.Tagged{Tag: tag}.Pack()) }

func headTag(s *Stack) uint64 { return atomicx.UnpackTagged(s.head.Load()).Tag }

// drain pops s empty and fails on an index seen twice.
func drain(t *testing.T, s *Stack, l Links) map[uint64]bool {
	t.Helper()
	seen := map[uint64]bool{}
	for {
		v, _ := s.Pop(l)
		if v == 0 {
			return seen
		}
		if seen[v] {
			t.Fatalf("index %d present twice (ABA corruption)", v)
		}
		seen[v] = true
	}
}

func TestTaggedLIFO(t *testing.T) {
	var s Stack
	l := make(sliceLinks, 128)
	if v, _ := s.Pop(l); v != 0 {
		t.Fatal("empty pop succeeded")
	}
	for i := uint64(1); i <= 100; i++ {
		s.Push(l, i, i)
	}
	for i := uint64(100); i >= 1; i-- {
		if v, fails := s.Pop(l); v != i || fails != 0 {
			t.Fatalf("Pop = (%d, %d fails), want %d", v, fails, i)
		}
	}
}

func TestTaggedPushZeroPanics(t *testing.T) {
	var s Stack
	defer func() {
		if recover() == nil {
			t.Error("Push(0) did not panic")
		}
	}()
	s.Push(make(sliceLinks, 4), 0, 0)
}

// TestChainInstallWalk pushes a linked chain, walks it, and checks that
// Install publishes a chain only onto an empty stack.
func TestChainInstallWalk(t *testing.T) {
	var s Stack
	l := make(sliceLinks, 8)
	l.SetNext(1, 2)
	l.SetNext(2, 3)
	if !s.Install(l, 1, 3) {
		t.Fatal("Install on an empty stack failed")
	}
	l.SetNext(4, 5)
	if s.Install(l, 4, 5) {
		t.Fatal("Install on a non-empty stack succeeded")
	}
	s.Push(l, 4, 5)
	var got []uint64
	if err := s.Walk(l, 5, func(idx uint64) { got = append(got, idx) }); err != nil {
		t.Fatal(err)
	}
	want := []uint64{4, 5, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Walk visits %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Walk visits %v, want %v", got, want)
		}
	}
	l.SetNext(3, 4) // a cycle
	n := 0
	if err := s.Walk(l, 5, func(uint64) { n++ }); err == nil || n != 5 {
		t.Fatalf("Walk of a cycle: %d visits, err %v; want 5 visits and an error", n, err)
	}
}

// conserve has goroutines pop and re-push indices 1..n: every index must
// remain present exactly once at the end (the invariant the ABA tag
// protects).
func conserve(t *testing.T, seed uint64) {
	const n = 1024
	var s Stack
	seedTag(&s, seed)
	l := make(sliceLinks, n+1)
	for i := uint64(1); i <= n; i++ {
		s.Push(l, i, i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				if v, _ := s.Pop(l); v != 0 {
					s.Push(l, v, v)
				}
			}
		}()
	}
	wg.Wait()
	if seen := drain(t, &s, l); len(seen) != n {
		t.Fatalf("drained %d indices, want %d", len(seen), n)
	}
}

func TestTaggedConcurrentConservation(t *testing.T) { conserve(t, 0) }

// TestConservationAcrossTagWrap runs the conservation test from a head
// tag about to wrap.
func TestConservationAcrossTagWrap(t *testing.T) { conserve(t, nearWrap) }

// FuzzStack decodes bytes into push, chain-push, pop and install-if-empty
// operations on at most 64 indices and checks each against a slice
// model, from a head tag about to wrap: the head must hold the model's
// contents, and its tag must count the successful operations modulo
// 2^24.
func FuzzStack(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 0, 1, 3, 2, 0, 3, 2, 2, 2})
	f.Add([]byte{3, 4, 1, 3, 3, 1, 2, 0, 2, 2, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const max = 64
		var s Stack
		seedTag(&s, nearWrap)
		l := make(sliceLinks, max+1)
		var model []uint64 // top at the end
		var free []uint64
		for i := uint64(1); i <= max; i++ {
			free = append(free, i)
		}
		successes := uint64(0)
		// take removes up to k free indices and links them in order.
		take := func(k int) []uint64 {
			k = min(k, len(free))
			chain := free[len(free)-k:]
			free = free[:len(free)-k]
			for i := 1; i < len(chain); i++ {
				l.SetNext(chain[i-1], chain[i])
			}
			return chain
		}
		for len(ops) >= 2 {
			op, arg := ops[0]%4, int(ops[1])
			ops = ops[2:]
			switch op {
			case 0, 1: // push one, or a chain of 1..4
				chain := take(1 + arg%4*int(op))
				if len(chain) == 0 {
					continue
				}
				if fails := s.Push(l, chain[0], chain[len(chain)-1]); fails != 0 {
					t.Fatalf("Push alone: %d failed CASes", fails)
				}
				for i := len(chain) - 1; i >= 0; i-- {
					model = append(model, chain[i])
				}
				successes++
			case 2:
				v, fails := s.Pop(l)
				var want uint64
				if len(model) > 0 {
					want = model[len(model)-1]
					model = model[:len(model)-1]
					free = append(free, want)
					successes++
				}
				if v != want || fails != 0 {
					t.Fatalf("Pop = (%d, %d fails), want %d", v, fails, want)
				}
			case 3:
				empty := len(model) == 0
				chain := take(1 + arg%4)
				if len(chain) == 0 {
					continue
				}
				if got := s.Install(l, chain[0], chain[len(chain)-1]); got != empty {
					t.Fatalf("Install on a stack of %d = %v", len(model), got)
				}
				if !empty {
					free = append(free, chain...)
					continue
				}
				for i := len(chain) - 1; i >= 0; i-- {
					model = append(model, chain[i])
				}
				successes++
			}
			var got []uint64
			if err := s.Walk(l, max, func(idx uint64) { got = append(got, idx) }); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(model) {
				t.Fatalf("stack %v, model (top last) %v", got, model)
			}
			for i, v := range got {
				if v != model[len(model)-1-i] {
					t.Fatalf("stack %v, model (top last) %v", got, model)
				}
			}
			if want := (nearWrap + successes) & atomicx.TaggedTagMask; headTag(&s) != want {
				t.Fatalf("head tag %d after %d successful operations, want %d", headTag(&s), successes, want)
			}
		}
	})
}
