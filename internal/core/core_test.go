package core

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/sizeclass"
)

func testConfig() Config {
	return Config{
		Processors: 4,
		HeapConfig: mem.Config{TotalWordsLog2: 28},
	}
}

func newTestAllocator(t *testing.T, cfg Config) *Allocator {
	t.Helper()
	return New(cfg)
}

func TestMallocFreeRoundTrip(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	p, err := th.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if p.IsNil() {
		t.Fatal("nil pointer")
	}
	a.heap.Set(p, 0xdeadbeef)
	if a.heap.Get(p) != 0xdeadbeef {
		t.Fatal("payload write lost")
	}
	th.Free(p)
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestFreeNilIsNoop(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	th.Free(0)
	if got := a.Stats().Ops.Frees; got != 0 {
		t.Errorf("Frees = %d after Free(nil)", got)
	}
}

func TestEverySizeClass(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	for _, cls := range sizeclass.All() {
		p, err := th.Malloc(cls.PayloadBytes)
		if err != nil {
			t.Fatalf("class %d: %v", cls.Index, err)
		}
		// The whole payload must be writable without touching other
		// blocks' words; stamp and verify below via a second block.
		words := cls.PayloadBytes / mem.WordBytes
		for i := uint64(0); i < words; i++ {
			a.heap.Set(p.Add(i), uint64(cls.Index)<<32|i)
		}
		q, err := th.Malloc(cls.PayloadBytes)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < words; i++ {
			a.heap.Set(q.Add(i), ^uint64(0))
		}
		for i := uint64(0); i < words; i++ {
			if a.heap.Get(p.Add(i)) != uint64(cls.Index)<<32|i {
				t.Fatalf("class %d: block overlap at word %d", cls.Index, i)
			}
		}
		th.Free(p)
		th.Free(q)
	}
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestPayloadSizesRoundUp(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	// Odd sizes must still yield a usable block of at least that size.
	for _, sz := range []uint64{1, 3, 7, 9, 100, 1000, 2047} {
		p, err := th.Malloc(sz)
		if err != nil {
			t.Fatal(err)
		}
		words := (sz + mem.WordBytes - 1) / mem.WordBytes
		for i := uint64(0); i < words; i++ {
			a.heap.Set(p.Add(i), i)
		}
		th.Free(p)
	}
}

func TestLargeBlocks(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	sizes := []uint64{
		sizeclass.MaxPayloadBytes + 1,
		16 * 1024,
		1 << 20,
	}
	for _, sz := range sizes {
		p, err := th.Malloc(sz)
		if err != nil {
			t.Fatalf("Malloc(%d): %v", sz, err)
		}
		words := sz / mem.WordBytes
		a.heap.Set(p, 1)
		a.heap.Set(p.Add(words-1), 2)
		th.Free(p)
	}
	s := a.Stats()
	if s.Ops.LargeMallocs != uint64(len(sizes)) || s.Ops.LargeFrees != uint64(len(sizes)) {
		t.Errorf("large ops = %d/%d, want %d/%d",
			s.Ops.LargeMallocs, s.Ops.LargeFrees, len(sizes), len(sizes))
	}
	if s.Heap.LiveWords != 0 {
		t.Errorf("LiveWords = %d after freeing all large blocks", s.Heap.LiveWords)
	}
}

func TestLargeBlockTooBig(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	if _, err := th.Malloc(1 << 40); err == nil {
		t.Error("absurd allocation succeeded")
	}
}

func TestBlocksAreDistinct(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	const n = 5000 // spans multiple superblocks of the 8-byte class
	ptrs := make(map[mem.Ptr]bool, n)
	for i := 0; i < n; i++ {
		p, err := th.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		if ptrs[p] {
			t.Fatalf("pointer %v returned twice", p)
		}
		ptrs[p] = true
		a.heap.Set(p, uint64(i))
	}
	if err := a.CheckInvariants(int64(n)); err != nil {
		t.Fatal(err)
	}
	i := 0
	for p := range ptrs {
		th.Free(p)
		i++
	}
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestFreeListReuseLIFO(t *testing.T) {
	// Within one superblock, a freed block should be handed out again
	// (the paper's Figure 5 behaviour).
	a := newTestAllocator(t, testConfig())
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
	if p != q {
		t.Errorf("freed block not reused: %v then %v", p, q)
	}
	th.Free(q)
}

func TestSuperblockBecomesEmptyAndIsFreed(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	cls, _ := sizeclass.For(2048) // only 7 blocks per superblock
	n := int(cls.MaxCount) * 3
	ptrs := make([]mem.Ptr, n)
	for i := range ptrs {
		p, err := th.Malloc(2048)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	before := a.Stats()
	for _, p := range ptrs {
		th.Free(p)
	}
	after := a.Stats()
	if after.Ops.EmptySBFreed <= before.Ops.EmptySBFreed {
		t.Error("no superblock was returned to the OS")
	}
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
	if after.Heap.LiveWords >= before.Heap.LiveWords {
		t.Errorf("LiveWords did not drop: %d -> %d", before.Heap.LiveWords, after.Heap.LiveWords)
	}
}

// TestRegionReuseAcrossThreads: the OS layer is one region allocator
// shared by every thread, so the region thread A's frees return is the
// one thread B's next superblock takes, and no fresh address space is
// reserved for it.
func TestRegionReuseAcrossThreads(t *testing.T) {
	a := newTestAllocator(t, Config{Processors: 2, HeapConfig: mem.Config{TotalWordsLog2: 28}})
	ta, tb := a.Thread(), a.Thread()
	cls, _ := sizeclass.For(2048)
	// A fills one superblock and starts a second, so the first is no
	// longer Active and its last free empties it.
	ptrs := make([]mem.Ptr, cls.MaxCount+1)
	for i := range ptrs {
		p, err := ta.Malloc(2048)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	before := a.Stats()
	for _, p := range ptrs[:cls.MaxCount] {
		ta.Free(p)
	}
	freed := a.Stats()
	if freed.Ops.EmptySBFreed != before.Ops.EmptySBFreed+1 {
		t.Fatalf("EmptySBFreed %d -> %d, want one superblock returned", before.Ops.EmptySBFreed, freed.Ops.EmptySBFreed)
	}
	q, err := tb.Malloc(2048)
	if err != nil {
		t.Fatal(err)
	}
	after := a.Stats()
	if after.Heap.ReusedRegions != freed.Heap.ReusedRegions+1 {
		t.Errorf("ReusedRegions %d -> %d, want B's superblock from A's freed region",
			freed.Heap.ReusedRegions, after.Heap.ReusedRegions)
	}
	if after.Heap.ReservedWords != freed.Heap.ReservedWords {
		t.Errorf("ReservedWords %d -> %d, want no fresh address space", freed.Heap.ReservedWords, after.Heap.ReservedWords)
	}
	tb.Free(q)
	ta.Free(ptrs[cls.MaxCount])
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestDescriptorRecycling(t *testing.T) {
	// Exhaust and release superblocks repeatedly: descriptor count
	// must stay bounded (retired descriptors are reused).
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	cls, _ := sizeclass.For(2048)
	for round := 0; round < 50; round++ {
		var ptrs []mem.Ptr
		for i := uint64(0); i < cls.MaxCount*2; i++ {
			p, err := th.Malloc(2048)
			if err != nil {
				t.Fatal(err)
			}
			ptrs = append(ptrs, p)
		}
		for _, p := range ptrs {
			th.Free(p)
		}
	}
	if n := a.Stats().DescsAllocated; n > 4*descChunk {
		t.Errorf("descriptor table grew to %d; recycling is broken", n)
	}
}

// TestDescriptorFreelistIsOneHead: the descriptor pool is Figure 7's one
// DescAvail list. Thread A empties its superblocks, retiring their
// descriptors; thread B's next superblock, on another processor heap,
// pops one of them off the same head and no new chunk is carved.
// TestCheckInvariantsReportsCyclicDescAvail retires two descriptors and
// links the lower one back to the top, making DescAvail cyclic: the
// checker must return an error naming a descriptor, not loop.
func TestCheckInvariantsReportsCyclicDescAvail(t *testing.T) {
	a := New(testConfig())
	lo, err := a.descs.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := a.descs.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	a.descs.Retire(0, lo)
	a.descs.Retire(0, hi) // DescAvail is hi -> lo -> the chunk's rest
	a.desc(lo).PoolNext().Store(atomicx.Tagged{Idx: hi, Tag: 1 << 20}.Pack())
	done := make(chan error, 1)
	go func() { done <- a.CheckInvariants(0) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "is free twice") {
			t.Fatalf("CheckInvariants on a cyclic DescAvail: %v, want the descriptor named", err)
		}
		t.Log(err)
	case <-time.After(time.Second):
		t.Fatal("CheckInvariants on a cyclic DescAvail did not return within 1 s")
	}
}

func TestDescriptorFreelistIsOneHead(t *testing.T) {
	cfg := testConfig()
	cfg.Processors = 2
	a := New(cfg)
	ta, tb := a.Thread(), a.Thread()
	var ptrs [64]mem.Ptr
	for i := range ptrs {
		p, err := ta.Malloc(2048)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	for _, p := range ptrs {
		ta.Free(p)
	}
	retired, err := a.descs.FreeIndices()
	if err != nil {
		t.Fatal(err)
	}
	allocated := a.descs.Allocated()
	if len(retired) == 0 {
		t.Fatal("A's empty superblocks retired no descriptor")
	}
	p, err := tb.Malloc(2048)
	if err != nil {
		t.Fatal(err)
	}
	if d := prefixDesc(a.heap.Load(p - 1)); !retired[d] {
		t.Errorf("B's superblock has descriptor %d, not one A retired", d)
	}
	if n := a.descs.Allocated(); n != allocated {
		t.Errorf("B's superblock grew the descriptor table %d → %d", allocated, n)
	}
	tb.Free(p)
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestCrossThreadFree(t *testing.T) {
	// Producer-consumer pattern: one thread allocates, another frees.
	a := newTestAllocator(t, testConfig())
	prod := a.Thread()
	cons := a.Thread()
	ch := make(chan mem.Ptr, 256)
	const n = 20000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			p, err := prod.Malloc(8)
			if err != nil {
				t.Errorf("malloc: %v", err)
				return
			}
			a.heap.Store(p, uint64(i))
			ch <- p
		}
		close(ch)
	}()
	go func() {
		defer wg.Done()
		i := uint64(0)
		for p := range ch {
			if got := a.heap.Load(p); got != i {
				t.Errorf("block %d: payload %d", i, got)
				return
			}
			cons.Free(p)
			i++
		}
	}()
	wg.Wait()
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
	s := a.Stats()
	if s.Ops.Mallocs != n || s.Ops.Frees != n {
		t.Errorf("ops = %d/%d, want %d/%d", s.Ops.Mallocs, s.Ops.Frees, n, n)
	}
}

// stress runs goroutines doing random malloc/free with payload
// integrity checks, then verifies global invariants.
func stress(t *testing.T, cfg Config, goroutines, iters int) {
	t.Helper()
	a := New(cfg)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := a.Thread()
			rng := rand.New(rand.NewSource(seed))
			type held struct {
				p     mem.Ptr
				words uint64
				tag   uint64
			}
			var live []held
			for i := 0; i < iters; i++ {
				if len(live) > 0 && (rng.Intn(2) == 0 || len(live) > 64) {
					k := rng.Intn(len(live))
					h := live[k]
					for w := uint64(0); w < h.words; w++ {
						if a.heap.Get(h.p.Add(w)) != h.tag+w {
							t.Errorf("payload corrupted at %v word %d", h.p, w)
							return
						}
					}
					th.Free(h.p)
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
				sz := uint64(8 << rng.Intn(9)) // 8..2048
				if rng.Intn(50) == 0 {
					sz = 4096 + uint64(rng.Intn(8192)) // occasionally two or three a superblock, or large
				}
				p, err := th.Malloc(sz)
				if err != nil {
					t.Errorf("malloc(%d): %v", sz, err)
					return
				}
				words := sz / mem.WordBytes
				tag := uint64(seed)<<40 | uint64(i)<<8
				for w := uint64(0); w < words; w++ {
					a.heap.Set(p.Add(w), tag+w)
				}
				live = append(live, held{p, words, tag})
			}
			for _, h := range live {
				for w := uint64(0); w < h.words; w++ {
					if a.heap.Get(h.p.Add(w)) != h.tag+w {
						t.Errorf("payload corrupted at %v word %d (drain)", h.p, w)
						return
					}
				}
				th.Free(h.p)
			}
		}(int64(g + 1))
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
	// The workers dropped their handles without Unregister.
	s := a.Stats()
	if s.Ops.Mallocs != s.Ops.Frees {
		t.Errorf("mallocs %d != frees %d", s.Ops.Mallocs, s.Ops.Frees)
	}
}

func TestStressDefault(t *testing.T) {
	stress(t, testConfig(), 8, 20000)
}

func TestStressSingleHeap(t *testing.T) {
	// The uniprocessor optimization (§4.2.4): one heap for all threads.
	cfg := testConfig()
	cfg.Processors = 1
	stress(t, cfg, 8, 15000)
}

func TestStressNoCredits(t *testing.T) {
	// MaxCredits=1 forces the UpdateActive path on every malloc.
	cfg := testConfig()
	cfg.MaxCredits = 1
	stress(t, cfg, 4, 10000)
}

func TestStressLIFOPartial(t *testing.T) {
	cfg := testConfig()
	cfg.PartialLIFO = true
	stress(t, cfg, 4, 10000)
}

func TestStressKeepNewSBOnRaceLoss(t *testing.T) {
	cfg := testConfig()
	cfg.KeepNewSBOnRaceLoss = true
	stress(t, cfg, 8, 10000)
}

func TestStressNoPartialSlot(t *testing.T) {
	cfg := testConfig()
	cfg.NoPartialSlot = true
	stress(t, cfg, 4, 10000)
}

func TestStressSmallMaxCredits(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCredits = 2
	stress(t, cfg, 4, 10000)
}

func TestStressHyperblocks(t *testing.T) {
	cfg := testConfig()
	cfg.Hyperblocks = true
	stress(t, cfg, 8, 15000)
}

func TestHyperblockScavengeAfterChurn(t *testing.T) {
	cfg := testConfig()
	cfg.Hyperblocks = true
	a := New(cfg)
	th := a.Thread()
	// Cycle enough superblocks of the big class to fill hyperblocks,
	// then free everything and scavenge.
	var ptrs []mem.Ptr
	for i := 0; i < 2000; i++ {
		p, err := th.Malloc(2048)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		th.Free(p)
	}
	hs := a.HyperStats()
	if hs.HyperAllocs == 0 {
		t.Fatal("hyperblock layer unused")
	}
	if n := a.Scavenge(); n < 1 {
		t.Errorf("scavenge released %d hyperblocks after full churn", n)
	}
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
	// The allocator still works after scavenging.
	p, err := th.Malloc(2048)
	if err != nil {
		t.Fatal(err)
	}
	th.Free(p)
}

func TestHookFiresAtNamedPoints(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	seen := map[HookPoint]int{}
	th.SetHook(func(p HookPoint) { seen[p]++ })
	cls, _ := sizeclass.For(2048)
	var ptrs []mem.Ptr
	for i := uint64(0); i < cls.MaxCount*3; i++ {
		p, err := th.Malloc(2048)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		th.Free(p)
	}
	for _, want := range []HookPoint{
		HookMallocAfterReserve, HookMallocAfterPop,
		HookNewSBBeforeInstall, HookFreeBeforeCAS, HookFreeBeforeRetire,
	} {
		if seen[want] == 0 {
			t.Errorf("hook %v never fired", want)
		}
	}
	th.SetHook(nil)
	p, _ := th.Malloc(8)
	th.Free(p)
	// No change after unhooking is implied by map not growing further;
	// just confirm point names render.
	if HookMallocAfterReserve.String() == "invalid-hook-point" {
		t.Error("hook point name missing")
	}
}

func TestRemoteFreeStorm(t *testing.T) {
	// All threads free blocks allocated by thread 0 into the same
	// superblocks while thread 0 keeps allocating: maximum contention
	// on a single descriptor's anchor (the scenario of §4.2.3 where
	// Hoard suffers and the lock-free allocator does not).
	a := newTestAllocator(t, testConfig())
	main := a.Thread()
	const workers = 4
	const rounds = 200
	const batch = 512
	chans := make([]chan []mem.Ptr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		chans[w] = make(chan []mem.Ptr, 4)
		wg.Add(1)
		go func(ch chan []mem.Ptr) {
			defer wg.Done()
			th := a.Thread()
			for batch := range ch {
				for _, p := range batch {
					th.Free(p)
				}
			}
		}(chans[w])
	}
	for r := 0; r < rounds; r++ {
		for w := 0; w < workers; w++ {
			ptrs := make([]mem.Ptr, batch)
			for i := range ptrs {
				p, err := main.Malloc(16)
				if err != nil {
					t.Fatal(err)
				}
				ptrs[i] = p
			}
			chans[w] <- ptrs
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestActiveCreditsNeverExceedAvailable(t *testing.T) {
	// After a quiescent run, every installed Active superblock must
	// back its credits with real blocks (checked by CheckInvariants's
	// free-list walk); run a workload that cycles many superblocks.
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	var ptrs []mem.Ptr
	for i := 0; i < 3000; i++ {
		p, err := th.Malloc(128)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	// Free in a shuffled order to create PARTIAL superblocks.
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(ptrs), func(i, j int) { ptrs[i], ptrs[j] = ptrs[j], ptrs[i] })
	for _, p := range ptrs[:len(ptrs)/2] {
		th.Free(p)
	}
	if err := a.CheckInvariants(int64(len(ptrs) - len(ptrs)/2)); err != nil {
		t.Fatal(err)
	}
	for _, p := range ptrs[len(ptrs)/2:] {
		th.Free(p)
	}
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAttribution(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	const n = 100
	for i := 0; i < n; i++ {
		p, err := th.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		th.Free(p)
	}
	s := a.Stats()
	if s.Ops.Mallocs != n {
		t.Errorf("Mallocs = %d", s.Ops.Mallocs)
	}
	if s.Ops.FromActive+s.Ops.FromPartial+s.Ops.FromNewSB != n {
		t.Errorf("path attribution does not sum: %+v", s.Ops)
	}
	if s.Ops.FromNewSB < 1 {
		t.Error("first malloc must come from a new superblock")
	}
	if s.Ops.FromActive < n-2 {
		t.Errorf("FromActive = %d; repeated malloc/free should hit the active path", s.Ops.FromActive)
	}
}

func TestAnchorStateAfterFill(t *testing.T) {
	// Fill one whole superblock of the 2048-byte class: its state
	// must become FULL and a subsequent free must make it PARTIAL.
	cfg := testConfig()
	cfg.Processors = 1
	a := New(cfg)
	th := a.Thread()
	cls, _ := sizeclass.For(2048)
	ptrs := make([]mem.Ptr, cls.MaxCount)
	for i := range ptrs {
		p, err := th.Malloc(2048)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	// Find the descriptor of the first block.
	desc := a.desc(prefixDesc(a.heap.Load(ptrs[0] - 1)))
	st := atomicx.UnpackAnchor(desc.Anchor.Load()).State
	if st != atomicx.StateFull {
		t.Fatalf("state after filling = %s, want FULL", atomicx.StateName(st))
	}
	th.Free(ptrs[0])
	st = atomicx.UnpackAnchor(desc.Anchor.Load()).State
	if st != atomicx.StatePartial {
		t.Fatalf("state after first free = %s, want PARTIAL", atomicx.StateName(st))
	}
	for _, p := range ptrs[1:] {
		th.Free(p)
	}
	st = atomicx.UnpackAnchor(desc.Anchor.Load()).State
	if st != atomicx.StateEmpty {
		t.Fatalf("state after freeing all = %s, want EMPTY", atomicx.StateName(st))
	}
}

func TestThreadsMapToDistinctHeaps(t *testing.T) {
	cfg := testConfig()
	cfg.Processors = 4
	a := New(cfg)
	sc := &a.classes[0]
	seen := map[*ProcHeap]bool{}
	for i := 0; i < 4; i++ {
		th := a.Thread()
		seen[th.findHeap(sc)] = true
	}
	if len(seen) != 4 {
		t.Errorf("4 threads mapped to %d heaps, want 4", len(seen))
	}
	// Thread 5 wraps around to heap 0's.
	th := a.Thread()
	if !seen[th.findHeap(sc)] {
		t.Error("thread 5 did not wrap to an existing heap")
	}
}

// TestNewFootprint pins what constructing an allocator, and serving its
// first block, costs in Go memory. On the default 2^31-word heap New is
// the 256 KiB descriptor table that heap's 2^20 superblocks need and
// some 27 KB that does not grow with the heap: the whole of New on the
// 2^26-word heap sched.Explore builds per schedule. The heap's words are
// an OS mapping, not Go memory, so the first Malloc adds only a 4 KiB
// descriptor chunk, whatever the heap. The limits leave room for a few
// more size classes, not for a table or a pool per class, nor for any
// backing of heap words in Go memory.
//
// descChunkLog2 stays 6: 512-descriptor chunks would shrink the table
// eightfold, but every allocator then carves and every CheckInvariants
// walks 512 descriptors where it uses a handful, and sched.Explore's
// tests took twice as long (0.27 -> 0.55 s each).
func TestNewFootprint(t *testing.T) {
	for _, c := range []struct {
		heap              mem.Config
		limit, withMalloc uint64
	}{
		{mem.Config{}, 384 << 10, 400 << 10},                 // 309 104 B + 4 744 B with 37 classes
		{mem.Config{TotalWordsLog2: 26}, 48 << 10, 64 << 10}, // 26 736 B + 4 744 B
	} {
		built, first := uint64(1<<62), uint64(1<<62)
		for i := 0; i < 3; i++ { // the least of three: other tests' goroutines allocate too
			var m [3]runtime.MemStats
			runtime.ReadMemStats(&m[0])
			a := New(Config{HeapConfig: c.heap})
			runtime.ReadMemStats(&m[1])
			if _, err := a.Thread().Malloc(8); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m[2])
			built = min(built, m[1].TotalAlloc-m[0].TotalAlloc)
			first = min(first, m[2].TotalAlloc-m[1].TotalAlloc)
		}
		if built > c.limit {
			t.Errorf("core.New with heap %+v allocates %d bytes, limit %d", c.heap, built, c.limit)
		}
		if built+first > c.withMalloc {
			t.Errorf("core.New and the first Malloc(8) with heap %+v allocate %d bytes, limit %d", c.heap, built+first, c.withMalloc)
		}
		// One descriptor chunk and small change, whatever New cost.
		if limit := uint64(16 << 10); first > limit {
			t.Errorf("the first Malloc(8) with heap %+v allocates %d bytes, limit %d", c.heap, first, limit)
		}
		t.Logf("heap %+v: New %d B, first Malloc(8) %d B", c.heap, built, first)
	}
}

// TestDescriptorTableFollowsTheHeap: a heap filled with superblocks runs
// out of address space, never of descriptors — also the second time,
// when the descriptors are recycled ones and EMPTY ones linger in the
// partial lists — and a table that is too small fails Malloc with the
// pool's wrapped error rather than a panic.
func TestDescriptorTableFollowsTheHeap(t *testing.T) {
	a := New(Config{Processors: 2, HeapConfig: mem.Config{SegmentWordsLog2: 16, TotalWordsLog2: 20}})
	th := a.Thread()
	for round := 0; round < 2; round++ {
		var held []mem.Ptr
		var err error
		for size := uint64(8); err == nil; size = size%2048 + 8 {
			var p mem.Ptr
			if p, err = th.Malloc(size); err == nil {
				held = append(held, p)
			}
		}
		if !errors.Is(err, mem.ErrOutOfMemory) {
			t.Fatalf("round %d: a full heap failed with %v after %d blocks, want mem.ErrOutOfMemory", round, err, len(held))
		}
		for _, p := range held {
			th.Free(p)
		}
	}
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}

	a = New(testConfig())
	a.descs = newDescPool(0, 1) // two usable chunks
	th = a.Thread()
	var err error
	for n := 0; err == nil && n < 1<<20; n++ {
		_, err = th.Malloc(sizeclass.MaxPayloadBytes) // few blocks a superblock
	}
	if !errors.Is(err, pool.ErrExhausted) {
		t.Fatalf("a full descriptor table failed Malloc with %v, want pool.ErrExhausted", err)
	}
}
