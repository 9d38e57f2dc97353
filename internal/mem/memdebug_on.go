//go:build memdebug

package mem

import (
	"fmt"
	"sync"
)

// memDebug enables extra assertions on the region-allocator API:
// FreeRegion rejecting sizes that are not region-rounded, and the
// live-region ledger.
const memDebug = true

// liveRegions is the ledger of the regions the OS layer has handed out
// and not taken back: for each page of one, its base and size.
type liveRegions struct {
	mu    sync.Mutex
	pages map[uint64]liveRegion
}

type liveRegion struct {
	base  Ptr
	words uint64
}

// add enters a region allocWords hands out, panicking if any of its
// pages belongs to a live region.
func (l *liveRegions) add(p Ptr, words uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pages == nil {
		l.pages = map[uint64]liveRegion{}
	}
	for pg := uint64(p) / PageWords; pg*PageWords < uint64(p)+words; pg++ {
		if r, ok := l.pages[pg]; ok {
			panic(fmt.Sprintf("mem: region %v of %d words overlaps live region %v of %d words", p, words, r.base, r.words))
		}
	}
	for pg := uint64(p) / PageWords; pg*PageWords < uint64(p)+words; pg++ {
		l.pages[pg] = liveRegion{p, words}
	}
}

// remove takes back a region FreeRegion returns, panicking unless it is
// live with exactly that size.
func (l *liveRegions) remove(p Ptr, words uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r, ok := l.pages[uint64(p)/PageWords]; !ok || r.base != p {
		panic(fmt.Sprintf("mem: FreeRegion(%v, %d): no live region has that base", p, words))
	} else if r.words != words {
		panic(fmt.Sprintf("mem: FreeRegion(%v, %d): the region has %d words", p, words, r.words))
	}
	for pg := uint64(p) / PageWords; pg*PageWords < uint64(p)+words; pg++ {
		delete(l.pages, pg)
	}
}
