// Package lfstack implements the classic lock-free LIFO stack — the
// IBM System/370 freelist algorithm (reference [8] of the paper) that
// underlies the allocator's descriptor freelist, the OS layer's region
// bins, and the §5 discussion of lock-free stacks as beneficiaries of
// the allocator.
//
// Tagged is the variant with the paper's first ABA-prevention
// technique: elements are 40-bit indices into caller-owned storage; the
// head packs (index, 24-bit version tag) into one word and the link
// lives at a caller-designated word per element. This is the
// in-simulated-heap variant (DescAvail, Figure 7); the buddy's hint
// stacks are its user. The hazard-pointer technique ([17,19]), for when
// tags cannot be embedded, is exercised by internal/lfqueue.
package lfstack

import (
	"sync/atomic"

	"repro/internal/atomicx"
)

// Links provides storage for intrusive next-links of the Tagged stack:
// index -> settable/gettable link word.
type Links interface {
	LoadLink(idx uint64) uint64
	StoreLink(idx, next uint64)
}

// Tagged is the tagged-head intrusive stack over caller storage.
// Index 0 is reserved as nil. All operations are lock-free.
type Tagged struct {
	links Links
	head  atomic.Uint64
	size  atomic.Int64
}

// NewTagged creates an empty stack over the given link storage.
func NewTagged(links Links) *Tagged {
	return &Tagged{links: links}
}

// Push adds idx (non-zero) to the stack.
func (s *Tagged) Push(idx uint64) {
	if idx == 0 {
		panic("lfstack: Push(0)")
	}
	for {
		oldHead := s.head.Load()
		h := atomicx.UnpackTagged(oldHead)
		s.links.StoreLink(idx, h.Idx)
		atomicx.Fence() // order the link store before the head CAS
		if s.head.CompareAndSwap(oldHead, atomicx.Tagged{Idx: idx, Tag: h.Tag + 1}.Pack()) {
			s.size.Add(1)
			return
		}
	}
}

// Pop removes and returns the most recently pushed index, or ok=false.
// The version tag makes the head CAS ABA-safe even though popped
// elements may be pushed again immediately.
func (s *Tagged) Pop() (uint64, bool) {
	for {
		oldHead := s.head.Load()
		h := atomicx.UnpackTagged(oldHead)
		if h.Idx == 0 {
			return 0, false
		}
		next := s.links.LoadLink(h.Idx)
		if s.head.CompareAndSwap(oldHead, atomicx.Tagged{Idx: next, Tag: h.Tag + 1}.Pack()) {
			s.size.Add(-1)
			return h.Idx, true
		}
	}
}

// Len returns a racy size estimate.
func (s *Tagged) Len() int {
	n := s.size.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}
