package buddy

import "fmt"

// OrderStat is the per-order occupancy of the buddy forest: how many
// maximal free blocks and how many allocated blocks exist at each
// block size. The external-fragmentation signature of the allocator —
// many small free blocks but no large ones — reads directly off this
// table.
type OrderStat struct {
	BlockWords uint64 // block size of this order, in words
	Free       uint64 // maximal free blocks (not part of a larger free block)
	Used       uint64 // allocated blocks of exactly this order
}

// OrderCensus walks every tree top-down and returns one row per order,
// largest blocks first. A node counts as a free block only when its
// whole subtree is free and no ancestor is free (so the forest's free
// space is partitioned into maximal blocks, the number a buddy
// allocator could actually hand out). The walk is racy against
// concurrent operations — counts are a snapshot, not an invariant.
func (a *Allocator) OrderCensus() []OrderStat {
	stats := make([]OrderStat, a.depth+1)
	for l := range stats {
		stats[l].BlockWords = a.blockWords(l)
	}
	for _, tr := range *a.trees.Load() {
		var visit func(n uint64, level int)
		visit = func(n uint64, level int) {
			s := tr.status[n].Load()
			if s&occ != 0 {
				stats[level].Used++
				return
			}
			if s == 0 {
				stats[level].Free++
				return
			}
			if level == a.depth {
				// Leaf with residual coalescing bits only: free.
				stats[level].Free++
				return
			}
			visit(2*n, level+1)
			visit(2*n+1, level+1)
		}
		visit(1, 0)
	}
	return stats
}

// CoalBits counts coalescing bits currently set across the forest.
// After a quiescent drain it is zero. While any block is live it need
// not be: a free whose merge stops below a live block's buddy (unmark's
// second stop condition) leaves its marks on the ancestors above the
// stop, beside their occupancy bits, for the live block's own free to
// clear. A block leaked by a dead thread is live forever, so after
// kills the residue is bounded by the root paths of the leaked blocks,
// not by the number of kills; OrphanCoalBits counts the part of it
// that no live block accounts for.
func (a *Allocator) CoalBits() int {
	total := 0
	for _, tr := range *a.trees.Load() {
		for i := 1; i < len(tr.status); i++ {
			s := tr.status[i].Load()
			if s&coalL != 0 {
				total++
			}
			if s&coalR != 0 {
				total++
			}
		}
	}
	return total
}

// OrphanCoalBits counts the coalescing bits that point at a subtree
// holding no occupied node: marks of a free that released its node and
// never unmarked, which no later free is bound to clear. Operations
// that run to completion leave none, whatever else is live; a thread
// killed between mark and the end of unmark strands at most one root
// path of them, which the kill-tolerance harness asserts. Quiescent
// callers only.
func (a *Allocator) OrphanCoalBits() int {
	total := 0
	for _, tr := range *a.trees.Load() {
		n := len(tr.status)
		// holdsOcc[i]: the subtree at i contains an occupied node.
		holdsOcc := make([]bool, n)
		for i := n - 1; i >= 1; i-- {
			holdsOcc[i] = tr.status[i].Load()&occ != 0 ||
				2*i+1 < n && (holdsOcc[2*i] || holdsOcc[2*i+1])
		}
		for i := 1; 2*i+1 < n; i++ {
			s := tr.status[i].Load()
			if s&coalL != 0 && !holdsOcc[2*i] {
				total++
			}
			if s&coalR != 0 && !holdsOcc[2*i+1] {
				total++
			}
		}
	}
	return total
}

// CheckInvariants validates the buddy trees and returns the first
// violation found, or nil.
//
// With strict set (the forest quiescent: no operations in flight, no
// threads killed mid-operation) it checks full consistency: an
// occupied node has no other bits set and an all-zero subtree; a
// parent's occupancy bit toward a child is set exactly when that
// child's subtree contains an allocation; a coalescing bit only
// appears alongside its side's occupancy bit (the shadowed residue a
// buddy's pending free legally leaves behind is impossible when
// quiescent and no kills happened — but such residue still satisfies
// this check, which is why kill runs may use strict=true only after a
// full drain); and the per-level used counters match the tree.
//
// Without strict (after kills, or while threads run) it checks only
// the safety property that survives arbitrary crash points: no two
// occupied nodes lie on one root path with both fully fragmented —
// i.e. no word of the heap is owned by two live blocks.
func (a *Allocator) CheckInvariants(strict bool) error {
	for ti, tr := range *a.trees.Load() {
		if err := a.checkTree(ti, tr, strict); err != nil {
			return err
		}
	}
	return nil
}

func (a *Allocator) checkTree(ti int, tr *tree, strict bool) error {
	n := uint64(len(tr.status))
	snap := make([]uint32, n)
	for i := uint64(1); i < n; i++ {
		snap[i] = tr.status[i].Load()
		if snap[i]&^uint32(statusMask) != 0 {
			return fmt.Errorf("tree %d node %d: status %#x has bits outside the mask", ti, i, snap[i])
		}
	}

	// hasOcc reports whether the subtree at i contains an occupied node.
	var hasOcc func(i uint64) bool
	hasOcc = func(i uint64) bool {
		if snap[i]&occ != 0 {
			return true
		}
		if 2*i >= n {
			return false
		}
		return hasOcc(2*i) || hasOcc(2*i+1)
	}

	if !strict {
		// Safety only: on any root path, at most one occupied node may
		// be fully fragmented (every ancestor carrying the occupancy
		// bit toward it). Two such nodes would both believe they own
		// the inner one's words.
		fullyFragmented := func(i uint64) bool {
			for c := i; c > 1; c >>= 1 {
				if snap[c>>1]&occBit(c) == 0 {
					return false
				}
			}
			return true
		}
		var walk func(i uint64, seen bool) error
		walk = func(i uint64, seen bool) error {
			if snap[i]&occ != 0 && fullyFragmented(i) {
				if seen {
					return fmt.Errorf("tree %d node %d: second fully-fragmented occupied node on one root path", ti, i)
				}
				seen = true
			}
			if 2*i < n {
				if err := walk(2*i, seen); err != nil {
					return err
				}
				return walk(2*i+1, seen)
			}
			return nil
		}
		return walk(1, false)
	}

	usedPerLevel := make([]int64, a.depth+1)
	for i := uint64(1); i < n; i++ {
		s := snap[i]
		if s&occ != 0 {
			usedPerLevel[levelOf(i)]++
			if s != occ {
				return fmt.Errorf("tree %d node %d: occupied with extra bits %#x", ti, i, s)
			}
			for lo, hi := 2*i, 2*i+1; lo < n; lo, hi = 2*lo, 2*hi+1 {
				for c := lo; c <= hi; c++ {
					if snap[c] != 0 {
						return fmt.Errorf("tree %d node %d: inside occupied node %d but status %#x", ti, c, i, snap[c])
					}
				}
			}
			continue
		}
		if 2*i < n {
			for _, c := range []uint64{2 * i, 2*i + 1} {
				want := hasOcc(c)
				got := s&occBit(c) != 0
				if want != got {
					return fmt.Errorf("tree %d node %d: occupancy bit toward child %d is %v but subtree occupancy is %v",
						ti, i, c, got, want)
				}
				if s&coalBit(c) != 0 && s&occBit(c) == 0 {
					return fmt.Errorf("tree %d node %d: coalescing bit toward child %d without its occupancy bit", ti, i, c)
				}
			}
		}
	}
	for l, want := range usedPerLevel {
		if got := tr.used[l].Load(); got != want {
			return fmt.Errorf("tree %d level %d: used counter %d but %d occupied nodes", ti, l, got, want)
		}
	}
	return nil
}
