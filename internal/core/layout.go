package core

import "unsafe"

// cacheLine is the coherence granule the layout is built around.
const cacheLine = 64

// The hot-path layout argument (DESIGN.md, PR 4) depends on Allocator
// filling the 256-byte and Thread the 320-byte size class exactly (both
// multiples of a line, so the Go allocator starts each on a line
// boundary); a field added outside the padding budget would silently
// shift the hot cache lines. Thread's first two lines hold everything
// Malloc and Free touch, the batched counters included; the atomic
// counter block other goroutines sample starts on the third.
// Descriptor and ProcHeap are each exactly one 64-byte line (DESIGN.md,
// "Memory layout"): a ninth descriptor word would put neighbouring
// superblocks' Anchor words back on shared lines. Two-sided compile-time
// assertions: either direction overflowing makes the constant negative.
const (
	_ = 256 - unsafe.Sizeof(Allocator{})
	_ = unsafe.Sizeof(Allocator{}) - 256
	_ = 5*cacheLine - unsafe.Sizeof(Thread{})
	_ = unsafe.Sizeof(Thread{}) - 5*cacheLine
	_ = 2*cacheLine - unsafe.Offsetof(Thread{}.id) // the hot fields end here
	_ = unsafe.Offsetof(Thread{}.id) - 2*cacheLine
	_ = cacheLine - unsafe.Sizeof(Descriptor{})
	_ = unsafe.Sizeof(Descriptor{}) - cacheLine
	_ = cacheLine - unsafe.Sizeof(ProcHeap{})
	_ = unsafe.Sizeof(ProcHeap{}) - cacheLine
)
