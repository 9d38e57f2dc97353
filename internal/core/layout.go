package core

import "unsafe"

// cacheLine is the coherence granule the layout is built around.
const cacheLine = 64

// The hot-path layout argument (DESIGN.md "Memory layout") depends on
// Allocator filling the 256-byte and Thread the 256-byte size class
// exactly (both multiples of a line, so the Go allocator starts each on
// a line boundary); a field added outside the padding budget would
// silently shift the hot cache lines. Thread's first line holds what
// every Malloc and Free reads of it, the count included, its second the
// rest of what they read, the magazines among it; the third is the
// slow paths', and the atomic counter block other goroutines sample
// starts on the fourth.
// Descriptor and ProcHeap are each exactly one 64-byte line (DESIGN.md,
// "Memory layout"): a ninth descriptor word would put neighbouring
// superblocks' Anchor words back on shared lines. Two-sided compile-time
// assertions: either direction overflowing makes the constant negative.
const (
	_ = 256 - unsafe.Sizeof(Allocator{})
	_ = unsafe.Sizeof(Allocator{}) - 256
	_ = 4*cacheLine - unsafe.Sizeof(Thread{})
	_ = unsafe.Sizeof(Thread{}) - 4*cacheLine
	_ = 2*cacheLine - unsafe.Offsetof(Thread{}.magScratch) // the hot fields end here
	_ = unsafe.Offsetof(Thread{}.magScratch) - 2*cacheLine
	_ = 3*cacheLine - unsafe.Offsetof(Thread{}.ops)
	_ = unsafe.Offsetof(Thread{}.ops) - 3*cacheLine
	_ = cacheLine - unsafe.Sizeof(Descriptor{})
	_ = unsafe.Sizeof(Descriptor{}) - cacheLine
	_ = cacheLine - unsafe.Sizeof(ProcHeap{})
	_ = unsafe.Sizeof(ProcHeap{}) - cacheLine
)
