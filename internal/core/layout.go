package core

import "unsafe"

// cacheLine is the coherence granule the layout is built around.
const cacheLine = 64

// The hot-path layout argument (DESIGN.md, PR 4) depends on Allocator
// and Thread filling the 256-byte size class exactly; a field added
// outside the padding budget would silently shift the hot cache lines.
// Descriptor and ProcHeap are each exactly one 64-byte line (DESIGN.md,
// "Memory layout"): a ninth descriptor word would put neighbouring
// superblocks' Anchor words back on shared lines. Two-sided compile-time
// assertions: either direction overflowing makes the constant negative.
const (
	_ = 256 - unsafe.Sizeof(Allocator{})
	_ = unsafe.Sizeof(Allocator{}) - 256
	_ = 256 - unsafe.Sizeof(Thread{})
	_ = unsafe.Sizeof(Thread{}) - 256
	_ = cacheLine - unsafe.Sizeof(Descriptor{})
	_ = unsafe.Sizeof(Descriptor{}) - cacheLine
	_ = cacheLine - unsafe.Sizeof(ProcHeap{})
	_ = unsafe.Sizeof(ProcHeap{}) - cacheLine
)
