// Package lfstack is the repository's one lock-free freelist: the classic
// IBM System/370 LIFO (reference [8] of the paper), Figure 7's DescAvail.
// Its users are the OS layer's region bins and hyperblock free stack, the
// descriptor pool's freelist, overflow list and constant-time batch
// stacks, the LIFO partial list, and the buddy allocator's hint stacks.
//
// Elements are non-zero 40-bit indices into storage the caller owns;
// index 0 is nil. The head packs (index, 24-bit version tag) into one
// word (atomicx.Tagged) and every successful head CAS bumps the tag: the
// paper's first ABA-prevention technique, in place of Figure 7's
// hazard-pointer SafeCAS, which internal/lfqueue exercises. The caller
// passes its link storage to every operation as a Links value, so a
// Stack is only its head word and its zero value is an empty stack.
package lfstack

import (
	"fmt"
	"sync/atomic"

	"repro/internal/atomicx"
)

// Links is the caller's link storage: Next returns the index idx links
// to (0 at the end of a chain), SetNext stores it. SetNext may be a
// plain store: the head CAS that follows publishes it.
type Links interface {
	Next(idx uint64) uint64
	SetNext(idx, next uint64)
}

// Stack is a tagged-head Treiber stack over caller link storage. The
// zero value is empty. All operations are lock-free.
type Stack struct{ head atomic.Uint64 }

// Pop removes and returns the most recently pushed index, or 0 if the
// stack is empty, and how many head CASes failed on the way.
func (s *Stack) Pop(l Links) (idx uint64, fails int) {
	for {
		old := s.head.Load()
		h := atomicx.UnpackTagged(old)
		if h.Idx == 0 {
			return 0, fails
		}
		next := l.Next(h.Idx)
		if s.head.CompareAndSwap(old, atomicx.Tagged{Idx: next, Tag: h.Tag + 1}.Pack()) {
			return h.Idx, fails
		}
		fails++
	}
}

// Push pushes the chain first..last, which the caller has linked from
// first to last (first == last for one element), and returns how many
// head CASes failed (DescRetire, Figure 7).
func (s *Stack) Push(l Links, first, last uint64) (fails int) {
	if first == 0 || last == 0 {
		panic("lfstack: Push of index 0")
	}
	for {
		old := s.head.Load()
		h := atomicx.UnpackTagged(old)
		l.SetNext(last, h.Idx)
		atomicx.Fence() // Figure 7 line 3: the link store before the head CAS
		if s.head.CompareAndSwap(old, atomicx.Tagged{Idx: first, Tag: h.Tag + 1}.Pack()) {
			return fails
		}
		fails++
	}
}

// Install pushes the linked chain first..last only if the stack is empty,
// and reports whether it did: Figure 7's CAS(&DescAvail, NULL, ...), by
// which DescAlloc publishes a fresh superblock of descriptors.
func (s *Stack) Install(l Links, first, last uint64) bool {
	old := s.head.Load()
	h := atomicx.UnpackTagged(old)
	if h.Idx != 0 {
		return false
	}
	l.SetNext(last, 0)
	atomicx.Fence() // Figure 7 line 7: the chain's links before the head CAS
	return s.head.CompareAndSwap(old, atomicx.Tagged{Idx: first, Tag: h.Tag + 1}.Pack())
}

// Walk calls visit for each index on the stack, head first, taking at
// most bound steps. On a stack of at most bound distinct indices it
// returns an error only if the links form a cycle. It follows links
// without synchronizing with Push and Pop: a concurrent walk may visit a
// torn chain, but it always ends.
func (s *Stack) Walk(l Links, bound uint64, visit func(idx uint64)) error {
	idx := atomicx.UnpackTagged(s.head.Load()).Idx
	for n := uint64(0); idx != 0; n++ {
		if n == bound {
			return fmt.Errorf("lfstack: more than %d nodes from head to nil: the links form a cycle", bound)
		}
		visit(idx)
		idx = l.Next(idx)
	}
	return nil
}

// TagLinks is Links over link words that carry their own tag: word
// returns idx's link word, which holds a packed atomicx.Tagged. SetNext
// bumps the word's tag on every store, the rule that lets a pool node
// reuse its link word while live (pool.Node).
type TagLinks func(idx uint64) *atomic.Uint64

// Next returns the index idx's link word holds.
func (w TagLinks) Next(idx uint64) uint64 { return atomicx.UnpackTagged(w(idx).Load()).Idx }

// SetNext stores next into idx's link word, bumping the word's tag.
func (w TagLinks) SetNext(idx, next uint64) {
	p := w(idx)
	p.Store(atomicx.Tagged{Idx: next, Tag: atomicx.UnpackTagged(p.Load()).Tag + 1}.Pack())
}
