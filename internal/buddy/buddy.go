// Package buddy implements a non-blocking binary buddy system after
// Marotta, Ianni, Scarselli, Pellegrini and Quaglia, "A Non-Blocking
// Buddy System for Scalable Memory Allocation on Multi-Core Machines"
// (arXiv:1804.03436), over the simulated address space of internal/mem.
//
// The allocator manages power-of-two blocks carved from fixed-size,
// self-aligned tree regions. Each tree is a complete binary tree of
// node states held in one status word per node; allocation claims a
// node with a single CAS and then marks its ancestors occupied
// bottom-up ("fragmentation"), free releases a node and merges it back
// with its buddies bottom-up ("coalescing") — all with per-node CAS
// only, no locks, so a thread stalled (or killed) at any step never
// prevents others from allocating or freeing. Where the paper's
// allocators either avoid coalescing entirely (Michael's size classes,
// which this repository's core reproduces) or serialize it under a
// lock (the chunkheap baselines), the buddy backend coalesces
// lock-free: this is the piece none of the other five backends has.
//
// Each node's status word packs five bits:
//
//	occ        — this node is allocated as one block
//	occL, occR — the left/right subtree contains an allocation
//	coalL, coalR — a free (coalescing pass) is in flight in the
//	               left/right subtree
//
// try_alloc(n) = CAS(status[n], 0, occ), then for each ancestor
// CAS-set the occ bit of the side n lies on while CAS-clearing that
// side's coal bit (taking over any in-flight coalescing); if an
// ancestor is itself occ, roll back with a bounded free. free(n) runs
// in three phases: (1) mark — CAS-set the coal bit of n's side in
// every ancestor up to the root; (2) release — store 0 to status[n];
// (3) unmark — bottom-up CAS-clear the coal and occ bits of n's side,
// stopping when the coal bit has been taken over by an allocation or
// when the buddy's side is still occupied (the merge then completes
// when the buddy frees). See DESIGN.md for the memory-ordering
// argument.
//
// On top of the paper's tree, free nodes are remembered in per-order
// lock-free hint stacks (lfstack.Stack over Go-side links, with a
// per-node claim flag), so the common allocation validates a hint
// instead of scanning its level; a per-level rotor bounds the scan
// fallback. Requests larger than a tree fall back to the shared
// large-object path (mem.LargeAlloc with the mem.SizePrefix encoding,
// bit 0 of the prefix distinguishing the two).
package buddy

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/lfstack"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// Status word bits (one uint32 per tree node).
const (
	occR  = 1 << 0 // right subtree contains an allocation
	occL  = 1 << 1 // left subtree contains an allocation
	coalR = 1 << 2 // coalescing in flight in the right subtree
	coalL = 1 << 3 // coalescing in flight in the left subtree
	occ   = 1 << 4 // this node is allocated as one block

	statusMask = occ | occL | occR | coalL | coalR
)

// occBit returns the parent-status occupancy bit for child c (left
// children are even, right children odd).
func occBit(c uint64) uint32 {
	if c&1 == 0 {
		return occL
	}
	return occR
}

// coalBit returns the parent-status coalescing bit for child c.
func coalBit(c uint64) uint32 {
	if c&1 == 0 {
		return coalL
	}
	return coalR
}

// nodeBits is the width of the node index inside a block prefix; the
// prefix packs (treeIdx << nodeBits | node) << 1 with bit 0 clear, so
// large-object prefixes (mem.SizePrefix, bit 0 set) stay disjoint.
const nodeBits = 24

// hintTries bounds how many stale hints one allocation pops from a
// level's stack before falling back to the level scan.
const hintTries = 8

// minWordsLog2 is the log2 of the smallest block (the leaf size) in
// words: 64 B blocks, one prefix word + 56 B of payload.
const minWordsLog2 = 3

// Config configures the buddy allocator.
type Config struct {
	// HeapConfig configures the simulated address space.
	HeapConfig mem.Config
	// TreeWordsLog2 is the log2 of each tree region's size in words.
	// 0 selects 18 (2 MiB of payload words). Clamped to the heap's
	// segment size.
	TreeWordsLog2 int
	// Telemetry, when set, receives CAS-retry counts for the tree
	// status words and growth races (the buddy-* sites).
	Telemetry *telemetry.Stripes
}

// tree is one self-aligned buddy region plus its Go-side node state.
// Node 1 is the root (the whole region); node i has children 2i and
// 2i+1; the level of node i is bits.Len64(i)-1, and a node at level l
// spans treeWords>>l words.
type tree struct {
	base   mem.Ptr
	status []atomic.Uint32 // 1-indexed node status words
	links  []atomic.Uint64 // intrusive hint-stack links, per node
	claim  []atomic.Uint32 // 1 while the node sits on a hint stack
	stacks []lfstack.Stack
	rotor  []atomic.Uint64 // per-level scan start
	used   []atomic.Int64  // per-level count of occ nodes
}

// treeLinks adapts a tree's link words to lfstack.Links.
type treeLinks struct{ tr *tree }

func (l treeLinks) Next(idx uint64) uint64   { return l.tr.links[idx].Load() }
func (l treeLinks) SetNext(idx, next uint64) { l.tr.links[idx].Store(next) }

// Allocator is the non-blocking buddy allocator. All methods are safe
// for concurrent use through per-goroutine Thread handles.
type Allocator struct {
	heap      *mem.Heap
	treeWords uint64
	treeLog2  int
	minWords  uint64
	depth     int // leaf level; levels run 0 (root) .. depth

	trees atomic.Pointer[[]*tree]
	tele  atomic.Pointer[telemetry.Stripes]

	nextThread atomic.Uint64

	mallocs      atomic.Uint64
	frees        atomic.Uint64
	largeMallocs atomic.Uint64
	largeFrees   atomic.Uint64
	grows        atomic.Uint64
	growRaces    atomic.Uint64
	hintHits     atomic.Uint64
	scans        atomic.Uint64
}

// New constructs a buddy allocator with one tree; further trees are
// added lock-free as demand grows.
func New(cfg Config) *Allocator {
	h := mem.NewHeap(cfg.HeapConfig)
	treeLog2 := cfg.TreeWordsLog2
	if treeLog2 == 0 {
		treeLog2 = 18
	}
	if segLog2 := bits.Len64(h.SegmentWords()) - 1; treeLog2 > segLog2 {
		treeLog2 = segLog2
	}
	minLog2 := min(minWordsLog2, treeLog2)
	a := &Allocator{
		heap:      h,
		treeWords: 1 << treeLog2,
		treeLog2:  treeLog2,
		minWords:  1 << minLog2,
		depth:     treeLog2 - minLog2,
	}
	if a.depth >= nodeBits-1 {
		panic("buddy: tree too deep for the prefix encoding")
	}
	if cfg.Telemetry != nil {
		a.tele.Store(cfg.Telemetry)
	}
	empty := make([]*tree, 0, 1)
	a.trees.Store(&empty)
	t := a.Thread()
	if err := a.grow(t, 0); err != nil {
		panic("buddy: cannot allocate the initial tree: " + err.Error())
	}
	return a
}

// Name identifies the allocator in benchmark output.
func (a *Allocator) Name() string { return "buddy" }

// Heap returns the backing address space.
func (a *Allocator) Heap() *mem.Heap { return a.heap }

// SetTelemetry attaches (or replaces) the stripe counters receiving
// the buddy-* retry sites.
func (a *Allocator) SetTelemetry(st *telemetry.Stripes) { a.tele.Store(st) }

func (a *Allocator) retry(site telemetry.Site, key uint64) {
	if st := a.tele.Load(); st != nil {
		st.Retry(site, key)
	}
}

// MaxBlockWords returns the largest block the tree path serves (one
// whole tree); larger requests take the shared large-object path.
func (a *Allocator) MaxBlockWords() uint64 { return a.treeWords }

// Depth returns the tree depth (leaf level); blocks come in depth+1
// orders.
func (a *Allocator) Depth() int { return a.depth }

// Thread registers a worker and returns its handle. Handles are not
// safe for concurrent use.
func (a *Allocator) Thread() *Thread {
	return &Thread{a: a, id: a.nextThread.Add(1) - 1}
}

// Thread is a per-goroutine handle.
type Thread struct {
	a      *Allocator
	id     uint64
	hookFn func(HookPoint)
}

// levelFor maps a total block size (payload + prefix, in words) to the
// tree level serving it. Caller guarantees totalWords <= treeWords.
func (a *Allocator) levelFor(totalWords uint64) int {
	want := totalWords
	if want < a.minWords {
		want = a.minWords
	}
	blockLog2 := bits.Len64(want - 1) // ceil(log2(want))
	return a.treeLog2 - blockLog2
}

// levelOf returns the level of node n (root = 1 = level 0).
func levelOf(n uint64) int { return bits.Len64(n) - 1 }

// blockWords returns the block size of a node at the given level.
func (a *Allocator) blockWords(level int) uint64 { return a.treeWords >> level }

// nodeBase returns the heap address of node n's block within tr.
func (a *Allocator) nodeBase(tr *tree, n uint64) mem.Ptr {
	level := levelOf(n)
	idx := n - 1<<level
	return tr.base.Add(idx * a.blockWords(level))
}

// Malloc allocates a block with at least size payload bytes and
// returns a pointer to the payload. The word before it is the block
// prefix identifying the block's tree node (or, for blocks larger
// than a tree, the region size via mem.SizePrefix).
func (t *Thread) Malloc(size uint64) (mem.Ptr, error) {
	a := t.a
	totalWords := mem.PayloadWords(size) + 1
	if totalWords > a.treeWords {
		p, err := a.heap.LargeAlloc(size, mem.SizePrefix)
		if err == nil {
			a.largeMallocs.Add(1)
		}
		return p, err
	}
	level := a.levelFor(totalWords)
	for {
		trees := *a.trees.Load()
		for i := range trees {
			tr := trees[(int(t.id)+i)%len(trees)]
			node, ok := tr.allocAt(level, t)
			if !ok {
				continue
			}
			tr.used[level].Add(1)
			a.mallocs.Add(1)
			base := a.nodeBase(tr, node)
			if memDebug {
				a.assertBlock(tr, node, base, level)
			}
			ti := a.treeIndex(tr, trees)
			a.heap.Store(base, (ti<<nodeBits|node)<<1)
			return base.Add(1), nil
		}
		if err := a.grow(t, len(trees)); err != nil {
			return 0, err
		}
	}
}

// treeIndex finds tr's index in the published snapshot. Trees are
// append-only, so an index is stable once assigned.
func (a *Allocator) treeIndex(tr *tree, trees []*tree) uint64 {
	for i, cand := range trees {
		if cand == tr {
			return uint64(i)
		}
	}
	panic("buddy: tree not in the published snapshot")
}

// allocAt claims a free node at the given level: first by validating
// hints from the level's free stack, then by scanning the level from
// its rotor. Returns ok=false when the whole level is exhausted.
func (tr *tree) allocAt(level int, t *Thread) (uint64, bool) {
	a := t.a
	for tries := 0; tries < hintTries; tries++ {
		node, _ := tr.stacks[level].Pop(treeLinks{tr})
		if node == 0 {
			break
		}
		tr.claim[node].Store(0)
		if tr.tryAlloc(node, t) {
			a.hintHits.Add(1)
			return node, true
		}
	}
	n := uint64(1) << level
	first := n
	start := tr.rotor[level].Load() % n
	for i := uint64(0); i < n; i++ {
		node := first + (start+i)%n
		if tr.status[node].Load() != 0 {
			continue
		}
		if tr.tryAlloc(node, t) {
			tr.rotor[level].Store((start + i + 1) % n)
			a.scans.Add(1)
			return node, true
		}
	}
	return 0, false
}

// tryAlloc is the paper's try_alloc: claim node n with one CAS, then
// fragment — mark every ancestor's status with the occupancy bit of
// the side n lies on, clearing that side's coalescing bit (taking over
// any in-flight free there). Finding an ancestor itself occupied means
// n's block lies inside an allocated larger block: roll back with a
// bounded free and fail.
func (tr *tree) tryAlloc(n uint64, t *Thread) bool {
	a := t.a
	if !tr.status[n].CompareAndSwap(0, occ) {
		a.retry(telemetry.SiteBuddyReserve, n)
		return false
	}
	t.hook(HookAllocAfterReserve)
	cur := n
	for cur > 1 {
		parent := cur >> 1
		for {
			s := tr.status[parent].Load()
			if s&occ != 0 {
				// An ancestor owns this subtree: undo the claim and
				// the occupancy bits set so far (those strictly below
				// parent), exactly a free bounded at cur.
				tr.freeNode(cur, n, t)
				return false
			}
			ns := (s | occBit(cur)) &^ coalBit(cur)
			t.hook(HookAllocDuringFragment)
			if tr.status[parent].CompareAndSwap(s, ns) {
				break
			}
			a.retry(telemetry.SiteBuddyFragment, parent)
		}
		cur = parent
	}
	return true
}

// freeNode is the paper's three-phase free of node n, bounded at
// ancestor upper (the root for a real free; the failed level for a
// fragmentation rollback): mark coalescing bits from n up to upper,
// release n, then unmark bottom-up.
func (tr *tree) freeNode(upper, n uint64, t *Thread) {
	tr.mark(upper, n, t)
	t.hook(HookFreeAfterMark)
	tr.status[n].Store(0)
	t.hook(HookFreeAfterRelease)
	tr.unmark(upper, n, t)
}

// mark CAS-sets the coalescing bit for n's side in every ancestor up
// to and including upper (phase 1 of free). The coal bits announce the
// in-flight free: a concurrent allocation below upper either sees them
// and takes over (fragment clears them), or completes before the
// release and makes unmark stop.
func (tr *tree) mark(upper, n uint64, t *Thread) {
	cur := n
	for cur != upper && cur > 1 {
		parent := cur >> 1
		for {
			s := tr.status[parent].Load()
			if tr.status[parent].CompareAndSwap(s, s|coalBit(cur)) {
				break
			}
			t.a.retry(telemetry.SiteBuddyMark, parent)
		}
		cur = parent
	}
}

// unmark clears the coalescing and occupancy bits of the freed side
// bottom-up (phase 3 of free), merging the block with its buddy at
// every level whose other side is completely free. Two stop
// conditions, both meaning another thread is now responsible for the
// levels above: the coal bit is gone (an allocation took over this
// subtree), or the parent's new status still carries bits (the buddy
// side is occupied or coalescing — the buddy's own free will continue
// the merge).
func (tr *tree) unmark(upper, n uint64, t *Thread) {
	cur := n
	for cur != upper && cur > 1 {
		parent := cur >> 1
		var ns uint32
		for {
			s := tr.status[parent].Load()
			if s&coalBit(cur) == 0 {
				return // taken over by an allocation in this subtree
			}
			ns = s &^ (coalBit(cur) | occBit(cur))
			t.hook(HookFreeDuringUnmark)
			if tr.status[parent].CompareAndSwap(s, ns) {
				break
			}
			t.a.retry(telemetry.SiteBuddyUnmark, parent)
		}
		if ns != 0 {
			return // buddy side still busy: it completes the merge
		}
		cur = parent
	}
}

// Free returns a block allocated by Malloc. Freeing the nil pointer is
// a no-op. Free is lock-free and may be called by any thread.
func (t *Thread) Free(p mem.Ptr) {
	if p.IsNil() {
		return
	}
	a := t.a
	prefix := a.heap.Load(p - 1)
	if prefix&1 != 0 {
		a.heap.LargeFree(p, mem.SizePrefixWords(prefix))
		a.largeFrees.Add(1)
		return
	}
	v := prefix >> 1
	node := v & (1<<nodeBits - 1)
	trees := *a.trees.Load()
	if memDebug {
		a.assertFree(p, v, trees)
	}
	tr := trees[v>>nodeBits]
	level := levelOf(node)
	tr.freeNode(1, node, t)
	tr.used[level].Add(-1)
	a.frees.Add(1)
	// Remember the node as an allocation hint. The claim flag keeps a
	// node on at most one stack at a time; a stale hint (the node
	// re-allocated or merged away meanwhile) is rejected by tryAlloc.
	if tr.claim[node].CompareAndSwap(0, 1) {
		tr.stacks[level].Push(treeLinks{tr}, node, node)
	}
	t.hook(HookFreeDone)
}

// UsableWords returns the payload words available in the block at p
// (the malloc_usable_size analogue): the node's block size minus the
// prefix word, or the region size minus the prefix word for blocks
// beyond the tree capacity.
func (t *Thread) UsableWords(p mem.Ptr) uint64 {
	a := t.a
	prefix := a.heap.Load(p - 1)
	if prefix&1 != 0 {
		return mem.SizePrefixWords(prefix) - 1
	}
	node := (prefix >> 1) & (1<<nodeBits - 1)
	return a.blockWords(levelOf(node)) - 1
}

// newTree allocates and initializes one tree region. The region is
// self-aligned (base a multiple of its size), so every block in it is
// naturally aligned to its own power-of-two size.
func (a *Allocator) newTree() (*tree, error) {
	base, err := a.heap.AllocRegionAligned(a.treeWords, a.treeWords)
	if err != nil {
		return nil, err
	}
	n := uint64(1) << (a.depth + 1)
	tr := &tree{
		base:   base,
		status: make([]atomic.Uint32, n),
		links:  make([]atomic.Uint64, n),
		claim:  make([]atomic.Uint32, n),
		stacks: make([]lfstack.Stack, a.depth+1),
		rotor:  make([]atomic.Uint64, a.depth+1),
		used:   make([]atomic.Int64, a.depth+1),
	}
	return tr, nil
}

// grow publishes one more tree, lock-free: build the tree, then CAS
// the append-only snapshot list. seen is the list length the caller
// acted on; if the list already grew past it, the freshly built tree
// is returned to the OS layer and the caller retries on the winner's
// tree instead (no thread ever waits on another's growth).
func (a *Allocator) grow(t *Thread, seen int) error {
	if cur := a.trees.Load(); len(*cur) > seen {
		return nil
	}
	tr, err := a.newTree()
	if err != nil {
		return err
	}
	t.hook(HookGrowBeforePublish)
	for {
		cur := a.trees.Load()
		if len(*cur) > seen {
			a.heap.FreeRegion(tr.base, a.treeWords)
			a.growRaces.Add(1)
			a.retry(telemetry.SiteBuddyGrow, uint64(seen))
			return nil
		}
		grown := make([]*tree, len(*cur)+1)
		copy(grown, *cur)
		grown[len(*cur)] = tr
		if a.trees.CompareAndSwap(cur, &grown) {
			a.grows.Add(1)
			return nil
		}
	}
}

// Trees returns the number of published trees.
func (a *Allocator) Trees() int { return len(*a.trees.Load()) }

// Stats is a snapshot of the allocator's operation counters.
type Stats struct {
	Mallocs, Frees           uint64 // tree-path operations completed
	LargeMallocs, LargeFrees uint64 // beyond-tree-capacity operations
	Grows, GrowRaces         uint64 // trees published / discarded on race loss
	HintHits, Scans          uint64 // allocations served by a hint vs a level scan
	Trees                    int
	TreeWords, MinBlockWords uint64
}

// Stats returns a racy snapshot of the operation counters.
func (a *Allocator) Stats() Stats {
	return Stats{
		Mallocs:       a.mallocs.Load(),
		Frees:         a.frees.Load(),
		LargeMallocs:  a.largeMallocs.Load(),
		LargeFrees:    a.largeFrees.Load(),
		Grows:         a.grows.Load(),
		GrowRaces:     a.growRaces.Load(),
		HintHits:      a.hintHits.Load(),
		Scans:         a.scans.Load(),
		Trees:         a.Trees(),
		TreeWords:     a.treeWords,
		MinBlockWords: a.minWords,
	}
}

// assertBlock panics unless the claimed node's block is power-of-two
// sized and aligned to its own size (the buddy geometry invariant).
// Compiled in only under the memdebug build tag.
func (a *Allocator) assertBlock(tr *tree, node uint64, base mem.Ptr, level int) {
	w := a.blockWords(level)
	if w&(w-1) != 0 {
		panic(fmt.Sprintf("buddy: node %d block size %d words is not a power of two", node, w))
	}
	if uint64(base)%w != 0 {
		panic(fmt.Sprintf("buddy: node %d block at %v is not aligned to its %d-word order", node, base, w))
	}
	if off := base.Sub(tr.base); off+w > a.treeWords {
		panic(fmt.Sprintf("buddy: node %d block at offset %d overruns its tree", node, off))
	}
}

// assertFree panics on a free whose prefix does not decode to a
// currently occupied node of a published tree. Compiled in only under
// the memdebug build tag.
func (a *Allocator) assertFree(p mem.Ptr, v uint64, trees []*tree) {
	ti, node := v>>nodeBits, v&(1<<nodeBits-1)
	if ti >= uint64(len(trees)) || node == 0 || node >= uint64(1)<<(a.depth+1) {
		panic(fmt.Sprintf("buddy: Free(%v): prefix decodes to tree %d node %d, out of range", p, ti, node))
	}
	tr := trees[ti]
	if a.nodeBase(tr, node).Add(1) != p {
		panic(fmt.Sprintf("buddy: Free(%v): not the payload address of tree %d node %d", p, ti, node))
	}
	if tr.status[node].Load()&occ == 0 {
		panic(fmt.Sprintf("buddy: Free(%v): tree %d node %d is not occupied (double free?)", p, ti, node))
	}
}
