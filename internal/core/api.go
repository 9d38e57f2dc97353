package core

import (
	"repro/internal/mem"
)

// UsableWords returns the number of payload words actually available
// in the block at p (at least the requested size, rounded up to the
// block's size class) — the malloc_usable_size analogue.
func (t *Thread) UsableWords(p mem.Ptr) uint64 {
	prefix := t.a.heap.Load(p - 1)
	if prefixIsLarge(prefix) {
		return mem.SizePrefixWords(prefix) - 1
	}
	return t.a.desc(prefixDesc(prefix)).Size() - 1
}

// MallocZeroed allocates like Malloc and zeroes the payload (the
// calloc analogue). The allocator never writes a payload, so a recycled
// block carries whatever its last owner left there: zeroing is
// explicit.
func (t *Thread) MallocZeroed(size uint64) (mem.Ptr, error) {
	p, err := t.Malloc(size)
	if err != nil {
		return 0, err
	}
	words := t.UsableWords(p)
	req := (size + mem.WordBytes - 1) / mem.WordBytes
	if req < words {
		words = req
	}
	w := t.a.heap.Words(p, words)
	for i := range w {
		w[i] = 0
	}
	return p, nil
}

// Realloc resizes the block at p to hold at least size payload bytes,
// preserving the payload prefix, and returns the (possibly moved)
// block. Realloc(0, size) allocates; Realloc(p, 0) keeps the block
// (returning it unchanged) as a one-word allocation would land in the
// same class anyway for small blocks.
func (t *Thread) Realloc(p mem.Ptr, size uint64) (mem.Ptr, error) {
	if p.IsNil() {
		return t.Malloc(size)
	}
	reqWords := (size + mem.WordBytes - 1) / mem.WordBytes
	if reqWords == 0 {
		reqWords = 1
	}
	usable := t.UsableWords(p)
	if reqWords <= usable {
		// Shrink or same-class grow: in place. (Like dlmalloc, no
		// split-back for modest shrinks within a size class.)
		return p, nil
	}
	np, err := t.Malloc(size)
	if err != nil {
		return 0, err
	}
	src := t.a.heap.Words(p, usable)
	dst := t.a.heap.Words(np, usable)
	copy(dst, src)
	t.Free(p)
	return np, nil
}
