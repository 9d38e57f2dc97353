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
