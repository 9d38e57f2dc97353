package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/sizeclass"
)

func magConfig(size int) Config {
	cfg := testConfig()
	cfg.MagazineSize = size
	return cfg
}

// TestMagazineRoundTrip: a free followed by a malloc of the same class
// must be served from the magazine (a hit, same pointer back) without
// touching the shared structures.
func TestMagazineRoundTrip(t *testing.T) {
	a := newTestAllocator(t, magConfig(16))
	th := a.Thread()
	p, err := th.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	th.Free(p)
	q, err := th.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Errorf("magazine returned %v, freed %v", q, p)
	}
	ops := a.Stats().Ops
	if ops.MagazineHits != 1 {
		t.Errorf("MagazineHits = %d, want 1", ops.MagazineHits)
	}
	if ops.Mallocs != 2 || ops.Frees != 1 {
		t.Errorf("Mallocs/Frees = %d/%d, want 2/1", ops.Mallocs, ops.Frees)
	}
	th.Free(q)
	// One block cached: the invariant checker must count it.
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
	th.Unregister()
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestMagazineRefillBatches verifies a miss refills the magazine in a
// batch: after the first malloc warms the superblock and a second
// malloc misses, subsequent mallocs hit without touching Active.
func TestMagazineRefillBatches(t *testing.T) {
	a := newTestAllocator(t, magConfig(32))
	th := a.Thread()
	var ptrs []mem.Ptr
	for i := 0; i < 16; i++ {
		p, err := th.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	ops := a.Stats().Ops
	// First malloc misses into MallocFromNewSB (Active NULL); the
	// second miss batch-refills; the rest must be mostly hits.
	if ops.MagazineHits < 8 {
		t.Errorf("MagazineHits = %d after 16 mallocs, want >= 8 (misses %d)",
			ops.MagazineHits, ops.MagazineMisses)
	}
	if err := a.CheckInvariants(int64(len(ptrs))); err != nil {
		t.Fatal(err)
	}
	for _, p := range ptrs {
		th.Free(p)
	}
	th.Unregister()
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestMagazineUnregisterFlush: Unregister must return every cached
// block, leaving the magazines empty and the structures consistent.
func TestMagazineUnregisterFlush(t *testing.T) {
	a := newTestAllocator(t, magConfig(64))
	th := a.Thread()
	var ptrs []mem.Ptr
	for i := 0; i < 40; i++ {
		p, err := th.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		th.Free(p)
	}
	cached := 0
	for cls := range th.mags {
		cached += int(th.mags[cls].n)
	}
	if cached == 0 {
		t.Fatal("no blocks cached before Unregister")
	}
	th.Unregister()
	for cls := range th.mags {
		if n := th.mags[cls].n; n != 0 {
			t.Errorf("class %d still caches %d blocks after Unregister", cls, n)
		}
	}
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestMagazineFlushEmptiesSuperblock: freeing everything through the
// magazine must still retire emptied superblocks (release's EMPTY
// transition for a flush group) once the magazines are flushed — and their
// descriptors with them, also when a flush group is a whole FULL
// superblock, which no Partial slot or list holds: 15 blocks of 16
// flushed at once, or both blocks of the top class.
func TestMagazineFlushEmptiesSuperblock(t *testing.T) {
	for _, size := range []uint64{1024, sizeclass.MaxPayloadBytes} {
		cfg := magConfig(32)
		cfg.Processors = 1
		a := newTestAllocator(t, cfg)
		th := a.Thread()
		// Enough blocks of one class to fill several superblocks.
		var ptrs []mem.Ptr
		for i := 0; i < 200; i++ {
			p, err := th.Malloc(size)
			if err != nil {
				t.Fatal(err)
			}
			ptrs = append(ptrs, p)
		}
		for _, p := range ptrs {
			th.Free(p)
		}
		th.FlushMagazines()
		st := a.Stats()
		if st.Ops.EmptySBFreed == 0 {
			t.Errorf("%d B: no superblock retired after flushing all blocks", size)
		}
		// What is not back on the freelist is the heap's Active and
		// Partial superblocks and EMPTY descriptors a list still links.
		lingering := 0
		for _, n := range a.PartialListLens() {
			lingering += n
		}
		if live := st.DescsAllocated - st.DescsOnFreelist; live > 2+uint64(lingering) {
			t.Errorf("%d B: %d descriptors neither retired nor reachable (%d superblocks emptied, %d in partial lists)",
				size, live, st.Ops.EmptySBFreed, lingering)
		}
		if err := a.CheckInvariants(0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMagazineFullToPartial: a flush into a FULL superblock must link
// it back for reuse (the batched FULL→PARTIAL transition). Freeing a
// few early blocks while the rest stay live forces the transition.
func TestMagazineFullToPartial(t *testing.T) {
	a := newTestAllocator(t, magConfig(8))
	th := a.Thread()
	var ptrs []mem.Ptr
	for i := 0; i < 3000; i++ { // several superblocks of class 8
		p, err := th.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	// Free blocks from the oldest (FULL, no longer Active) superblocks;
	// the magazine watermark (8) forces flushes into FULL anchors.
	for _, p := range ptrs[:64] {
		th.Free(p)
	}
	th.FlushMagazines()
	if err := a.CheckInvariants(int64(len(ptrs) - 64)); err != nil {
		t.Fatal(err)
	}
	// The transitioned superblocks must be reusable.
	for i := 0; i < 64; i++ {
		p, err := th.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	for _, p := range ptrs {
		th.Free(p)
	}
	th.Unregister()
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestMagazineChurnAccounting is the magazine analogue of the
// concurrent churn test: goroutines malloc/free with private magazines
// over shared heaps, then the checker proves no block was lost or
// double-linked — live + magazine-cached must exactly match the
// descriptors' allocated count, first with magazines still loaded and
// again after every thread unregistered.
func TestMagazineChurnAccounting(t *testing.T) {
	a := newTestAllocator(t, magConfig(24))
	const workers = 8
	const opsPer = 20000
	ths := make([]*Thread, workers)
	held := make([][]mem.Ptr, workers)
	for i := range ths {
		ths[i] = a.Thread()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := ths[w]
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPer; i++ {
				if len(held[w]) > 0 && (r.Intn(2) == 0 || len(held[w]) > 128) {
					k := r.Intn(len(held[w]))
					th.Free(held[w][k])
					held[w][k] = held[w][len(held[w])-1]
					held[w] = held[w][:len(held[w])-1]
					continue
				}
				p, err := th.Malloc(uint64(8 << r.Intn(8)))
				if err != nil {
					t.Error(err)
					return
				}
				held[w] = append(held[w], p)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var live int64
	for w := range held {
		live += int64(len(held[w]))
	}
	// Quiescent, magazines loaded: cached blocks are accounted.
	if err := a.CheckInvariants(live); err != nil {
		t.Fatalf("with loaded magazines: %v", err)
	}
	for w := range held {
		for _, p := range held[w] {
			ths[w].Free(p)
		}
		ths[w].Unregister()
	}
	if err := a.CheckInvariants(0); err != nil {
		t.Fatalf("after unregister: %v", err)
	}
	ops := a.Stats().Ops
	if ops.Mallocs != ops.Frees {
		t.Errorf("Mallocs %d != Frees %d at quiescence", ops.Mallocs, ops.Frees)
	}
	if ops.MagazineHits == 0 || ops.MagazineFlushes == 0 {
		t.Errorf("churn exercised no magazine traffic: hits=%d flushes=%d",
			ops.MagazineHits, ops.MagazineFlushes)
	}
}

// TestMagazineFlushSpliceRace freezes thread A inside a flush splice
// (after the group chain is linked, before the anchor CAS) while
// thread B churns the same size class on the same heap — forcing A's
// CAS to retry against B's anchor updates — then verifies accounting.
func TestMagazineFlushSpliceRace(t *testing.T) {
	cfg := magConfig(8)
	cfg.Processors = 1
	a := newTestAllocator(t, cfg)
	A := a.Thread()
	B := a.Thread()

	var ptrs []mem.Ptr
	for i := 0; i < 8; i++ {
		p, err := A.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	s := newStaller(A, HookMagFlushBeforeSplice, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The 8th free reaches the watermark and flushes mid-free.
		for _, p := range ptrs {
			A.Free(p)
		}
	}()
	<-s.stalled
	// A is frozen holding a linked group; B must make progress on the
	// same class and superblocks.
	for i := 0; i < 5000; i++ {
		p, err := B.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		B.Free(p)
	}
	close(s.release)
	<-done
	s.disabled = true
	A.Unregister()
	B.Unregister()
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestMagazineCrossThreadFree: blocks allocated by one thread and freed
// by another land in the freeing thread's magazine and may be reused
// for its own mallocs (blind stealing); accounting must survive.
func TestMagazineCrossThreadFree(t *testing.T) {
	a := newTestAllocator(t, magConfig(16))
	A := a.Thread()
	B := a.Thread()
	var ptrs []mem.Ptr
	for i := 0; i < 100; i++ {
		p, err := A.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		B.Free(p)
	}
	for i := 0; i < 50; i++ {
		if _, err := B.Malloc(64); err == nil {
			// leak intentionally into live set below
		} else {
			t.Fatal(err)
		}
	}
	if err := a.CheckInvariants(50); err != nil {
		t.Fatal(err)
	}
	A.Unregister()
	B.Unregister()
	if err := a.CheckInvariants(50); err != nil {
		t.Fatal(err)
	}
}

// TestMagazineDisabledUnchanged: with MagazineSize 0 the layer is
// completely inert — no magazine counters move and Unregister has
// nothing to flush.
func TestMagazineDisabledUnchanged(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	for i := 0; i < 1000; i++ {
		p, err := th.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		th.Free(p)
	}
	th.Unregister()
	ops := a.Stats().Ops
	if ops.MagazineHits+ops.MagazineMisses+ops.MagazineFlushes+ops.MagazineFlushedBlocks != 0 {
		t.Errorf("magazine counters moved with layer disabled: %+v", ops)
	}
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestMagazineOpStatsExact scripts one thread through a magazine of 8
// and checks core.OpStats, the only count of magazine traffic, at every
// step, with the census count beside it. 8-byte blocks of one fresh
// superblock: a refill takes 8/2+1 blocks and caches 4, the 8th cached
// block flushes the 4 oldest, and every flush is one group.
func TestMagazineOpStatsExact(t *testing.T) {
	a := newTestAllocator(t, magConfig(8))
	th := a.Thread()
	cls := a.classes[0].class.Index
	check := func(step string, hits, misses, flushes, flushed, cached uint64) {
		t.Helper()
		o := a.Stats().Ops
		if o.MagazineHits != hits || o.MagazineMisses != misses || o.MagazineFlushes != flushes || o.MagazineFlushedBlocks != flushed {
			t.Fatalf("%s: hits/misses/flushes/flushed blocks = %d/%d/%d/%d, want %d/%d/%d/%d", step,
				o.MagazineHits, o.MagazineMisses, o.MagazineFlushes, o.MagazineFlushedBlocks, hits, misses, flushes, flushed)
		}
		if got := a.MagazineCounts()[cls]; got != cached {
			t.Fatalf("%s: census counts %d cached blocks, want %d", step, got, cached)
		}
	}
	var ptrs []mem.Ptr
	malloc := func() {
		p, err := th.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	malloc() // miss, Active NULL: a new superblock serves it
	check("first malloc", 0, 1, 0, 0, 0)
	malloc() // miss: the refill returns one block and caches 4
	check("second malloc", 0, 2, 0, 0, 4)
	for i := 0; i < 4; i++ {
		malloc()
	}
	check("four hits", 4, 2, 0, 0, 0)
	malloc()
	check("third miss", 4, 3, 0, 0, 4)
	for i, p := range ptrs {
		th.Free(p)
		if i == 3 {
			check("8th cached block", 4, 3, 1, 4, 4)
		}
	}
	check("all freed", 4, 3, 1, 4, 7)
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
	th.Unregister()
	check("unregistered", 4, 3, 2, 11, 0)
	if o := a.Stats().Ops; o.Mallocs != 7 || o.Frees != 7 {
		t.Errorf("Mallocs/Frees = %d/%d, want 7/7", o.Mallocs, o.Frees)
	}
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}
