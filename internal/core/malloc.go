package core

import (
	"time"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// Malloc allocates a block with at least size payload bytes and returns
// a pointer to the payload (paper Figure 4). The returned pointer is
// word-aligned; the word before it is the block prefix identifying the
// block's superblock descriptor (or, for large blocks, its size).
//
// Every malloc is counted, by the path that served it and its size
// class. With a recorder attached, retry-site counters accumulate inside
// t.malloc, and the malloc at which the thread's countdown runs out goes
// to mallocTimed, which times it.
func (t *Thread) Malloc(size uint64) (mem.Ptr, error) {
	if t.rec == nil {
		p, _, err := t.malloc(size)
		return p, err
	}
	if t.due(&t.mallocTick) {
		return t.mallocTimed(size)
	}
	p, _, err := t.malloc(size)
	return p, err
}

// due counts down one operation of a kind and reports whether it is
// the one to time, the telemetry.Interval-th since the last; the timed
// path resets the countdown. It must inline into Malloc and Free
// (ci/inline_guard.sh).
func (t *Thread) due(countdown *uint64) bool {
	*countdown--
	return *countdown == 0
}

// mallocTimed is Malloc on a malloc that is due: the one place, with
// freeTimed, that reads the clock.
func (t *Thread) mallocTimed(size uint64) (mem.Ptr, error) {
	t.mallocTick = telemetry.Interval
	start := telemetry.Now()
	p, cls, err := t.malloc(size)
	if err != nil {
		return p, err
	}
	t.rec.EndMalloc(cls, time.Duration(telemetry.Now()-start))
	return p, nil
}

// malloc allocates a block, counts it by the path that served it, and
// reports the size class it was served from (-1 for large blocks), so
// callers need no second class lookup.
func (t *Thread) malloc(size uint64) (mem.Ptr, int, error) {
	sc, small := t.a.classFor(size)
	if !small {
		// A large block is allocated directly from the OS layer (paper:
		// "If the block size is large, then the block is allocated
		// directly from the OS and its prefix is set to indicate the
		// block's size"). The prefix records the region's actual
		// (rounded) size, so free hands FreeRegion the canonical size.
		p, err := t.a.heap.LargeAlloc(size, mem.SizePrefix)
		if err == nil {
			t.counts.Count(telemetry.PathLarge, -1)
		}
		return p, -1, err
	}
	cls := sc.class.Index
	if t.magCap != 0 {
		mag := &t.mags[cls]
		if p := mag.pop(); !p.IsNil() {
			// Magazine hit: the block is thread-private and its prefix
			// is still in place — no shared word is touched.
			t.counts.Count(telemetry.PathMagazine, cls)
			return p, cls, nil
		}
		add(&t.ops.magMisses, 1)
		if p := t.refillFromActive(t.findHeap(sc), mag); !p.IsNil() {
			// One malloc was served from the active superblock; the
			// cached remainder surfaces later as magazine hits.
			t.counts.Count(telemetry.PathActive, cls)
			return p, cls, nil
		}
		// Active was NULL: fall through to the paper's partial and
		// new-superblock paths for this single block; the next miss
		// retries the batched refill.
	}
	heap := t.findHeap(sc)
	for {
		if addr := t.mallocFromActive(heap); !addr.IsNil() {
			t.counts.Count(telemetry.PathActive, cls)
			return addr, cls, nil
		}
		if addr := t.mallocFromPartial(heap); !addr.IsNil() {
			t.counts.Count(telemetry.PathPartial, cls)
			return addr, cls, nil
		}
		addr, err := t.mallocFromNewSB(heap)
		if err != nil {
			return 0, cls, err
		}
		if !addr.IsNil() {
			t.counts.Count(telemetry.PathNewSB, cls)
			return addr, cls, nil
		}
	}
}

func (a *Allocator) classFor(size uint64) (*scState, bool) {
	cls, ok := sizeclassFor(size)
	if !ok {
		return nil, false
	}
	return &a.classes[cls], true
}

// mallocFromActive is Figure 4's MallocFromActive: reserve a block by
// decrementing the Active credits, then pop it from the superblock's
// LIFO free list via the anchor.
func (t *Thread) mallocFromActive(h *ProcHeap) mem.Ptr {
	a := t.a
	// First step: reserve block (lines 1-6). Credits occupy the low 6
	// bits of the Active word, so the common-case decrement is a plain
	// subtraction on the packed word.
	var oldWord uint64
	for {
		oldWord = h.Active.Load()
		if oldWord == 0 {
			return 0 // Active is NULL
		}
		var newWord uint64
		if oldWord&atomicx.ActiveCreditsMask != 0 {
			newWord = oldWord - 1 // credits--
		} // else NULL: this thread takes the last credit
		if h.Active.CompareAndSwap(oldWord, newWord) {
			break
		}
		t.rec.Retry(telemetry.SiteActiveReserve)
	}
	oldActive := atomicx.UnpackActive(oldWord)
	t.hook(HookMallocAfterReserve)
	// The success of the CAS guarantees a block in this specific
	// superblock is reserved for this thread, regardless of what state
	// the superblock moves through meanwhile (it cannot become EMPTY).
	desc := a.desc(oldActive.Desc)
	sb := desc.SB()
	sz := desc.Size()

	// Second step: pop the reserved block (lines 7-18), a lock-free
	// LIFO pop guarded against ABA by the anchor tag.
	var addr mem.Ptr
	if oldActive.Credits != 0 {
		// Common case: credits remain, so only avail and tag change;
		// operate directly on the packed anchor word.
		for {
			w := desc.Anchor.Load()
			addr = sb.Add((w & atomicx.AnchorAvailMask) * sz)
			nw := (w &^ uint64(atomicx.AnchorAvailMask)) | prefixLink(a.heap.Load(addr))
			nw += 1 << atomicx.AnchorTagShift // tag++ (wraps in the top bits)
			t.hook(HookMallocDuringPop)
			if desc.Anchor.CompareAndSwap(w, nw) {
				break
			}
			t.rec.Retry(telemetry.SiteActivePop)
		}
	} else {
		addr = t.popLastCredit(h, desc, oldActive.Desc, telemetry.SiteActivePop)
	}
	t.hook(HookMallocAfterPop)
	// Line 21's prefix store ran when the superblock was carved, and
	// free kept it beside the link: nothing to write.
	return addr.Add(1)
}

// popLastCredit is Figure 4 lines 13-19, the pop of a thread whose
// reserve took the last credit and set Active to NULL: it must either
// declare the superblock FULL or take more credits for UpdateActive.
// It returns the block's first word. mallocFromActive and the magazine
// refill both end a reservation here, holding the descriptor and its
// index already; site tells their retries apart.
func (t *Thread) popLastCredit(h *ProcHeap, desc *Descriptor, descIdx uint64, site telemetry.Site) mem.Ptr {
	a := t.a
	// The remote stack's blocks become credits like the anchor's.
	t.closeRemote(desc, descIdx)
	sb := desc.SB()
	sz := desc.Size()
	var addr mem.Ptr
	var morecredits uint64
	for {
		oldAnchor := desc.Anchor.Load()
		oa := atomicx.UnpackAnchor(oldAnchor)
		na := oa
		addr = sb.Add(oa.Avail * sz)
		na.Avail = prefixLink(a.heap.Load(addr))
		na.Tag++
		morecredits = 0
		// The state must be ACTIVE here.
		if oa.Count == 0 {
			na.State = atomicx.StateFull
		} else {
			morecredits = min(oa.Count, a.maxCredits)
			na.Count -= morecredits
		}
		if desc.Anchor.CompareAndSwap(oldAnchor, na.Pack()) {
			break
		}
		t.rec.Retry(site)
	}
	if morecredits > 0 { // line 19
		t.hook(HookMallocBeforeUpdateActive)
		t.updateActive(h, descIdx, morecredits)
	}
	return addr
}

// updateActive is Figure 4's UpdateActive: try to reinstall desc as the
// heap's active superblock with morecredits-1 credits; if another
// thread installed a different superblock meanwhile, return the credits
// to the anchor, mark the superblock PARTIAL, and make it available.
func (t *Thread) updateActive(h *ProcHeap, descIdx, morecredits uint64) {
	desc := t.a.desc(descIdx)
	newActive := atomicx.Active{Desc: descIdx, Credits: morecredits - 1}.Pack()
	desc.remote.Store(remoteOpen)              // before the install, which a closer may follow
	if h.Active.CompareAndSwap(0, newActive) { // line 3
		return
	}
	t.rec.Retry(telemetry.SiteActiveInstall)
	t.closeRemote(desc, descIdx)
	t.returnCredits(descIdx, morecredits)
}

// returnCredits is UpdateActive lines 4-8, for a thread that holds
// credits of a superblock it could not install as Active: the credits go
// back to the anchor count, the superblock becomes PARTIAL and is made
// available.
func (t *Thread) returnCredits(descIdx, credits uint64) {
	desc := t.a.desc(descIdx)
	for {
		oldWord := desc.Anchor.Load()
		na := atomicx.UnpackAnchor(oldWord)
		na.Count += credits
		na.State = atomicx.StatePartial
		if desc.Anchor.CompareAndSwap(oldWord, na.Pack()) {
			break
		}
		t.rec.Retry(telemetry.SiteUpdateActive)
	}
	t.heapPutPartial(descIdx)
}

// mallocFromPartial is Figure 4's MallocFromPartial: obtain a PARTIAL
// superblock, reserve one block for this thread plus up to MAXCREDITS
// extra, pop the block, and deposit the extra credits in Active.
func (t *Thread) mallocFromPartial(h *ProcHeap) mem.Ptr {
	a := t.a
retry:
	descIdx := t.heapGetPartial(h) // line 1
	if descIdx == 0 {
		return 0
	}
	t.hook(HookPartialAfterGet)
	desc := a.desc(descIdx)
	desc.heapID.Store(h.id) // line 3: ownership transfer

	var morecredits uint64
	for { // reserve blocks (lines 4-10)
		oldWord := desc.Anchor.Load()
		oa := atomicx.UnpackAnchor(oldWord)
		if oa.State == atomicx.StateEmpty {
			add(&t.ops.emptyPartialSkips, 1)
			a.descs.Retire(t.stripe(), descIdx) // line 6
			goto retry
		}
		// oa.State must be PARTIAL and oa.Count > 0.
		morecredits = min(oa.Count-1, a.maxCredits)
		na := oa
		na.Count -= morecredits + 1
		if morecredits > 0 {
			na.State = atomicx.StateActive
		} else {
			na.State = atomicx.StateFull
		}
		if desc.Anchor.CompareAndSwap(oldWord, na.Pack()) {
			break
		}
		t.rec.Retry(telemetry.SitePartialReserve)
	}
	t.hook(HookPartialAfterReserve)

	sb := desc.SB()
	sz := desc.Size()
	var addr mem.Ptr
	for { // pop reserved block (lines 11-15)
		oldWord := desc.Anchor.Load()
		oa := atomicx.UnpackAnchor(oldWord)
		na := oa
		addr = sb.Add(oa.Avail * sz)
		na.Avail = prefixLink(a.heap.Load(addr))
		na.Tag++
		if desc.Anchor.CompareAndSwap(oldWord, na.Pack()) {
			break
		}
		t.rec.Retry(telemetry.SitePartialPop)
	}
	if morecredits > 0 {
		t.updateActive(h, descIdx, morecredits) // lines 16-17
	}
	return addr.Add(1) // line 18's prefix is already there
}

// heapGetPartial is Figure 4's HeapGetPartial: pop the heap's
// most-recently-used Partial slot, falling back to the size class's
// partial list.
func (t *Thread) heapGetPartial(h *ProcHeap) uint64 {
	for {
		descIdx := h.Partial.Load()
		if descIdx == 0 {
			break
		}
		if h.Partial.CompareAndSwap(descIdx, 0) {
			return descIdx
		}
		t.rec.Retry(telemetry.SitePartialSlot)
	}
	if v, ok := t.a.classOf(h).partial.Get(); ok { // ListGetPartial
		return v
	}
	return 0
}

// mallocFromNewSB is Figure 4's MallocFromNewSB: allocate a fresh
// superblock and try to install it as the heap's active superblock.
// Returns a nil pointer (and nil error) if the install race was lost
// and the caller should retry from MallocFromActive.
func (t *Thread) mallocFromNewSB(h *ProcHeap) (mem.Ptr, error) {
	a := t.a
	cls := a.classOf(h).class

	descIdx, err := a.descs.Alloc(t.stripe()) // line 1
	if err != nil {
		// Descriptor table exhausted: surface it through malloc's
		// existing error path instead of crashing.
		return 0, err
	}
	desc := a.desc(descIdx)
	sb, err := a.allocSB(cls.SBWords) // line 2
	if err != nil {
		a.descs.Retire(t.stripe(), descIdx)
		return 0, err
	}

	// Organize blocks in a linked list starting with index 0 (line 3),
	// and give every block its prefix (lines 15 and 21, once per
	// superblock instead of once per malloc). Block 0 is taken by this
	// thread; blocks 1..maxcount-1 form the free list (block i links to
	// i+1; the last block's link, which need not even fit its field, is
	// never followed before a free, per the paper's footnote 1).
	prefix := smallPrefix(descIdx, cls.Index)
	for i := uint64(0); i < cls.MaxCount; i++ {
		a.heap.Store(sb.Add(i*cls.BlockWords), withLink(prefix, i+1))
	}

	desc.sb.Store(uint64(sb))
	desc.freeSB.Store(uint64(sb))
	desc.heapID.Store(h.id) // line 4
	desc.szWords.Store(cls.BlockWords)
	desc.szMagic.Store(^uint64(0)/cls.BlockWords + 1)
	desc.maxCount.Store(cls.MaxCount) // line 7
	desc.classIdx.Store(int64(cls.Index))

	credits := min(cls.MaxCount-1, a.maxCredits) - 1 // line 9
	newActive := atomicx.Active{Desc: descIdx, Credits: credits}.Pack()

	oldTag := atomicx.UnpackAnchor(desc.Anchor.Load()).Tag
	anchor := atomicx.Anchor{
		Avail: 1,                                  // line 5
		Count: (cls.MaxCount - 1) - (credits + 1), // line 10
		State: atomicx.StateActive,                // line 11
		Tag:   oldTag + 1,                         // fresh tag across descriptor reuse
	}
	desc.Anchor.Store(anchor.Pack())
	desc.remote.Store(remoteOpen)

	atomicx.Fence() // line 12: publish descriptor fields before install
	t.hook(HookNewSBBeforeInstall)

	if h.Active.CompareAndSwap(0, newActive) { // line 13
		return sb.Add(1), nil
	}
	t.rec.Retry(telemetry.SiteActiveInstall)

	// Lost the race: another thread installed an active superblock.
	desc.remote.Store(0) // closed empty: block 0 is still this thread's
	if a.cfg.KeepNewSBOnRaceLoss {
		// Alternative policy (paper line 16 comment): take block 0,
		// return the reserved credits, and keep the superblock PARTIAL.
		t.returnCredits(descIdx, credits+1)
		return sb.Add(1), nil
	}

	// Preferred policy: deallocate to avoid external fragmentation
	// (lines 16-17). The anchor is marked EMPTY first so diagnostics
	// (and MallocFromPartial's EMPTY check, should a stale reference
	// surface) see a retired descriptor, not a live superblock.
	desc.Anchor.Store(atomicx.Anchor{State: atomicx.StateEmpty, Tag: anchor.Tag + 1}.Pack())
	a.freeSB(sb, cls.SBWords)
	a.descs.Retire(t.stripe(), descIdx)
	add(&t.ops.newSBRaceLoss, 1)
	return 0, nil
}
