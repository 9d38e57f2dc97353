package main

// sut.go is the only file of the benchmark that imports the program's
// packages: every constructor and every hot call into the system under
// test is made here, so the API surface the benchmark depends on can be
// read off this file's imports and call sites (README "Pinned API").

import (
	"fmt"
	"sync/atomic"

	"repro/alloc"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/offload"
	"repro/internal/partial"
	"repro/internal/pool"
	"repro/internal/sizeclass"
	"repro/internal/telemetry"
)

// ptr is an address in the simulated heap, in words.
type ptr = mem.Ptr

type (
	thread  = alloc.Thread
	simHeap = *mem.Heap
)

const wordBytes = mem.WordBytes

// sutConfig is what a workload's application passes to the allocator.
type sutConfig struct {
	backend   string // alloc.New name; "" selects lockfree
	threads   int    // alloc.Options.Processors
	magazine  int    // alloc.Options.LockFree.MagazineSize
	telemetry bool   // attach core.NewRecorder (count passes only)
}

// sut is one freshly constructed allocator.
type sut struct {
	a    alloc.Allocator
	heap *mem.Heap
	core *core.Allocator     // nil for the lock-based baselines
	rec  *telemetry.Recorder // nil unless sutConfig.telemetry
}

func newSUT(c sutConfig) (*sut, error) {
	opt := alloc.Options{Processors: c.threads}
	opt.LockFree.MagazineSize = c.magazine
	s := &sut{}
	if c.telemetry {
		s.rec = core.NewRecorder(telemetry.Config{})
		opt.LockFree.Telemetry = s.rec
	}
	name := c.backend
	if name == "" {
		name = "lockfree"
	}
	a, err := alloc.New(name, opt)
	if err != nil {
		return nil, err
	}
	s.a, s.heap = a, a.Heap()
	if ca, ok := a.(alloc.CoreAccessor); ok {
		s.core = ca.Core()
	}
	return s, nil
}

// unregister releases a thread handle's caches (magazines, offload stash).
func unregister(th alloc.Thread) {
	if u, ok := th.(alloc.Unregisterer); ok {
		u.Unregister()
	}
}

// peakHeapBytes is the paper's §4.2.5 space metric: the high-water mark
// of words the allocator held from the OS layer.
func (s *sut) peakHeapBytes() uint64 { return s.heap.Stats().MaxLiveWords * wordBytes }

// verify runs the end-of-round checks. Every handle must have been
// unregistered and every block freed before it is called.
func (s *sut) verify() error {
	if s.core == nil {
		return nil
	}
	if err := s.core.CheckInvariants(0); err != nil {
		return fmt.Errorf("CheckInvariants: %w", err)
	}
	st := s.core.Stats()
	if st.Ops.Mallocs != st.Ops.Frees || st.Ops.LargeMallocs != st.Ops.LargeFrees {
		return fmt.Errorf("leak: mallocs=%d frees=%d large mallocs=%d large frees=%d",
			st.Ops.Mallocs, st.Ops.Frees, st.Ops.LargeMallocs, st.Ops.LargeFrees)
	}
	// A drained allocator keeps only the superblocks still installed as
	// Active or cached in Partial slots, one live descriptor each; any
	// other live word is a region that was never returned.
	held := (st.DescsAllocated - st.DescsOnFreelist) * sizeclass.SuperblockWords
	if st.Heap.LiveWords > held {
		return fmt.Errorf("leak: %d heap words live, %d accounted to superblocks", st.Heap.LiveWords, held)
	}
	return nil
}

// counters is the flat set of public counters the count passes read:
// core.Allocator.Stats, mem.Heap.Stats and the telemetry snapshot.
type counters struct {
	ops           core.OpStats
	descs         uint64
	regionAllocs  uint64
	reusedRegions uint64
	steals        uint64
	reservedWords uint64
	tele          telemetry.Snapshot
}

func (s *sut) counters() counters {
	st := s.core.Stats()
	return counters{
		ops:           st.Ops,
		descs:         st.DescsAllocated,
		regionAllocs:  st.Heap.RegionAllocs,
		reusedRegions: st.Heap.ReusedRegions,
		steals:        st.Heap.Steals,
		reservedWords: st.Heap.ReservedWords,
		tele:          s.rec.Snapshot(),
	}
}

// sub returns c − base for the counters the count metrics use; the
// telemetry part through Snapshot.Sub. descs and reservedWords stay
// absolute.
func (c counters) sub(base counters) counters {
	d := c
	o, b := &d.ops, base.ops
	o.LargeMallocs -= b.LargeMallocs
	o.FromActive -= b.FromActive
	o.FromPartial -= b.FromPartial
	o.FromNewSB -= b.FromNewSB
	o.NewSBRaceLoss -= b.NewSBRaceLoss
	o.EmptySBFreed -= b.EmptySBFreed
	o.MagazineHits -= b.MagazineHits
	o.MagazineMisses -= b.MagazineMisses
	o.MagazineFlushes -= b.MagazineFlushes
	d.regionAllocs -= base.regionAllocs
	d.reusedRegions -= base.reusedRegions
	d.steals -= base.steals
	d.tele = c.tele.Sub(base.tele)
	return d
}

// retries sums the failed-CAS counts of the named telemetry sites.
func (c counters) retries(sites ...telemetry.Site) float64 {
	var n uint64
	for _, s := range sites {
		n += c.tele.Retries[s.String()]
	}
	return float64(n)
}

// Site groups behind the *_retries_per_kop metrics.
var (
	sitesMem      = []telemetry.Site{telemetry.SiteRegionPop, telemetry.SiteRegionPush, telemetry.SiteRegionBump}
	sitesPool     = []telemetry.Site{telemetry.SiteDescAlloc, telemetry.SiteDescRetire}
	sitesList     = []telemetry.Site{telemetry.SitePartialListPut, telemetry.SitePartialListGet}
	sitesActive   = []telemetry.Site{telemetry.SiteActiveReserve, telemetry.SiteActivePop, telemetry.SiteActiveInstall, telemetry.SiteUpdateActive}
	sitesFree     = []telemetry.Site{telemetry.SiteFreeFast, telemetry.SiteFreeSlow}
	sitesPartial  = []telemetry.Site{telemetry.SitePartialReserve, telemetry.SitePartialPop, telemetry.SitePartialSlot}
	sitesMagazine = []telemetry.Site{telemetry.SiteMagRefillReserve, telemetry.SiteMagRefillPop, telemetry.SiteMagFlush}
	sitesMigrate  = []telemetry.Site{telemetry.SitePoolMigrate}
)

// ---- per-worker hot calls ------------------------------------------

// canaryStep spaces the per-word canary pattern (see canaryAt).
const canaryStep = 0x9e3779b97f4a7c15

// canary derives a block's check value from its address, its requested
// size and the round's seed, so a recycled-while-live or overlapping
// block cannot carry a matching value by accident.
func canary(p ptr, size, seed uint64) uint64 {
	x := uint64(p)*canaryStep ^ size<<48 ^ seed
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	return x ^ x>>32
}

// canaryAt is the expected content of payload word i of a block whose
// canary is c: word 0 holds c itself.
func canaryAt(c, i uint64) uint64 { return c ^ i*canaryStep }

func payloadWords(size uint64) uint64 { return (size + wordBytes - 1) / wordBytes }

// malloc calls Thread.Malloc. A Malloc error is counted, never fatal.
func (w *worker) malloc(size uint64) (ptr, bool) {
	id := w.spanBegin(spanMalloc)
	p, err := w.th.Malloc(size)
	w.spanEnd(id)
	if err != nil {
		w.fail("Malloc(%d): %v", size, err)
		return 0, false
	}
	w.reqAlloc += size
	return p, true
}

// free calls Thread.Free; size is what the block was requested with.
func (w *worker) free(p ptr, size uint64) {
	w.reqFreed += size
	w.frees++
	if w.fault == faultLeak && w.units >= w.faultAt {
		w.fault = faultNone
		return // the block is dropped without a Free
	}
	id := w.spanBegin(spanFree)
	w.th.Free(p)
	w.spanEnd(id)
}

// spanBegin and spanEnd record a span around a call into the program;
// outside a traced unit (w.tr == nil) they cost one branch each.
func (w *worker) spanBegin(name uint8) int32 {
	if w.tr != nil {
		return w.tr.begin(name)
	}
	return -1
}

func (w *worker) spanEnd(id int32) {
	if id >= 0 {
		w.tr.end(id)
	}
}

// newCanary is the canary a fresh block is written with.
func (w *worker) newCanary(p ptr, size uint64) uint64 {
	c := canary(p, size, w.seed)
	if w.fault == faultCanary && w.units >= w.faultAt {
		w.fault = faultNone
		c = ^c // the injected fault: a block that reads back wrong
	}
	return c
}

// stamp writes the canary into the first and last payload word.
func (w *worker) stamp(p ptr, size uint64) {
	c, last := w.newCanary(p, size), payloadWords(size)-1
	w.heap.Store(p, c)
	w.heap.Store(p.Add(last), canaryAt(c, last))
}

// checkFirst and checkLast verify one stamped word each and report a
// mismatch as a failed unit; blocks whose first word carries data are
// checked by their last word alone.
func (w *worker) checkFirst(p ptr, size uint64) bool { return w.checkWord(p, size, 0) }

func (w *worker) checkLast(p ptr, size uint64) bool {
	return w.checkWord(p, size, payloadWords(size)-1)
}

func (w *worker) checkWord(p ptr, size, i uint64) bool {
	got, want := w.heap.Load(p.Add(i)), canaryAt(canary(p, size, w.seed), i)
	if got != want {
		w.fail("canary mismatch at %v word %d (size %d): got %#x want %#x", p, i, size, got, want)
	}
	return got == want
}

// alloc is malloc + stamp; release is check + free.
func (w *worker) alloc(size uint64) (ptr, bool) {
	p, ok := w.malloc(size)
	if ok {
		w.stamp(p, size)
	}
	return p, ok
}

func (w *worker) release(p ptr, size uint64) {
	_ = w.checkFirst(p, size) && w.checkLast(p, size) // one failed unit at most
	w.free(p, size)
}

// fill writes the whole payload with the block's canary pattern and
// returns the xor of the words written (kvcache put).
func (w *worker) fill(p ptr, size uint64) uint64 {
	id := w.spanBegin(spanPayload)
	c, n := w.newCanary(p, size), payloadWords(size)
	var sum uint64
	for i := uint64(0); i < n; i++ {
		v := canaryAt(c, i)
		w.heap.Store(p.Add(i), v)
		sum ^= v
	}
	w.payloadEnd(id, n)
	return sum
}

// readXor reads n payload words through Heap.Load and returns their xor.
func (w *worker) readXor(p ptr, n uint64) uint64 {
	id := w.spanBegin(spanPayload)
	var sum uint64
	for i := uint64(0); i < n; i++ {
		sum ^= w.heap.Load(p.Add(i))
	}
	w.payloadEnd(id, n)
	return sum
}

// payloadEnd closes a mem.payload span over the given number of payload
// word accesses.
func (w *worker) payloadEnd(id int32, words uint64) {
	w.payload += words
	w.spanEnd(id)
}

func (w *worker) load(p ptr) uint64     { return w.heap.Load(p) }
func (w *worker) store(p ptr, v uint64) { w.heap.Store(p, v) }

// ---- ladder rungs ---------------------------------------------------

// rung is one public call pair timed in isolation on one goroutine.
// open builds the state and returns op, which performs n pairs, and
// closeFn, which releases what open started. maxPairs, when set, caps a
// slice for rungs whose state grows with every pair.
type rung struct {
	name     string
	batch    int // pairs per clock read
	maxPairs int
	open     func() (op func(n int), closeFn func())
}

// sink keeps rung results observable so calls are not optimised away.
var sink atomic.Uint64

type poolNode struct{ next atomic.Uint64 }

func (n *poolNode) PoolNext() *atomic.Uint64 { return &n.next }

func must[T any](v T, err error) T {
	if err != nil {
		panic(fmt.Sprintf("ladder: %v", err))
	}
	return v
}

func noClose() {}

// threadPair returns a rung that times Malloc(size)+Free on one handle.
func threadPair(newThread func() (alloc.Thread, func()), size uint64) func() (func(int), func()) {
	return func() (func(int), func()) {
		th, closeFn := newThread()
		return func(n int) {
			for i := 0; i < n; i++ {
				th.Free(must(th.Malloc(size)))
			}
		}, closeFn
	}
}

// threadBatch times k mallocs followed by k frees, per pair.
func threadBatch(newThread func() (alloc.Thread, func()), size uint64, k int) func() (func(int), func()) {
	return func() (func(int), func()) {
		th, closeFn := newThread()
		ps := make([]ptr, k)
		return func(n int) {
			for done := 0; done < n; done += k {
				for i := range ps {
					ps[i] = must(th.Malloc(size))
				}
				for _, p := range ps {
					th.Free(p)
				}
			}
		}, closeFn
	}
}

// coreThread opens a handle on a one-processor core allocator.
func coreThread(magazine int, recorder bool) func() (alloc.Thread, func()) {
	return func() (alloc.Thread, func()) {
		cfg := core.Config{Processors: 1, MagazineSize: magazine}
		if recorder {
			cfg.Telemetry = core.NewRecorder(telemetry.Config{})
		}
		return core.New(cfg).Thread(), noClose
	}
}

func backendThread(name string) func() (alloc.Thread, func()) {
	return func() (alloc.Thread, func()) {
		th := must(alloc.New(name, alloc.Options{Processors: 1})).NewThread()
		return th, func() { unregister(th) }
	}
}

func poolPair(algo pool.Algo) func() (func(int), func()) {
	return func() (func(int), func()) {
		pl := pool.New[poolNode, *poolNode](pool.Config{ChunkLog2: 8, MaxChunks: 1 << 10, Stripes: 1, Algo: algo})
		return func(n int) {
			for i := 0; i < n; i++ {
				pl.Retire(0, must(pl.Alloc(0)))
			}
		}, noClose
	}
}

func listPair(newList func() partial.List) func() (func(int), func()) {
	return func() (func(int), func()) {
		l := newList()
		return func(n int) {
			for i := 0; i < n; i++ {
				if err := l.Put(7); err != nil {
					panic(err)
				}
				v, _ := l.Get()
				sink.Add(v)
			}
		}, noClose
	}
}

// wordRung times one word access on a 1024-word region.
func wordRung(access func(h *mem.Heap, p ptr, i uint64) uint64) func() (func(int), func()) {
	return func() (func(int), func()) {
		h := mem.NewHeap(mem.Config{})
		base, _ := must2(h.AllocRegion(1024))
		return func(n int) {
			var s uint64
			for i := uint64(0); i < uint64(n); i++ {
				s += access(h, base.Add(i&1023), i)
			}
			sink.Add(s)
		}, noClose
	}
}

func must2[A, B any](a A, b B, err error) (A, B) {
	if err != nil {
		panic(fmt.Sprintf("ladder: %v", err))
	}
	return a, b
}

// ladder lists every rung, bottom layer first.
func ladder() []rung {
	sbClass, _ := sizeclass.For(sizeclass.MaxPayloadBytes)
	perSB := int(sbClass.MaxCount)
	lockfree := backendThread("lockfree")
	return []rung{
		{name: "mem.load_ns", batch: 4096, open: wordRung(func(h *mem.Heap, p ptr, _ uint64) uint64 { return h.Load(p) })},
		{name: "mem.store_ns", batch: 4096, open: wordRung(func(h *mem.Heap, p ptr, i uint64) uint64 { h.Store(p, i); return 0 })},
		{name: "mem.cas_ns", batch: 4096, open: wordRung(func(h *mem.Heap, p ptr, i uint64) uint64 {
			h.CAS(p, h.Load(p), i)
			return 0
		})},
		{name: "mem.region_pair_ns", batch: 256, open: func() (func(int), func()) {
			h := mem.NewHeap(mem.Config{})
			return func(n int) {
				for i := 0; i < n; i++ {
					p, words := must2(h.AllocRegion(sizeclass.SuperblockWords))
					h.FreeRegion(p, words)
				}
			}, noClose
		}},
		{name: "mem.large_pair_ns", batch: 256, open: func() (func(int), func()) {
			h := mem.NewHeap(mem.Config{})
			return func(n int) {
				for i := 0; i < n; i++ {
					p := must(h.LargeAlloc(32<<10, mem.SizePrefix))
					h.LargeFree(p, mem.SizePrefixWords(h.Load(p-1)))
				}
			}, noClose
		}},
		{name: "mem.hyper_pair_ns", batch: 256, open: func() (func(int), func()) {
			hy := mem.NewHyper(mem.NewHeap(mem.Config{}), sizeclass.SuperblockWords, 64)
			return func(n int) {
				for i := 0; i < n; i++ {
					hy.Free(must(hy.Alloc()))
				}
			}, noClose
		}},
		{name: "sizeclass.index_ns", batch: 4096, open: func() (func(int), func()) {
			return func(n int) {
				var s int
				for i := 0; i < n; i++ {
					c, _ := sizeclass.IndexFor(uint64(i*37) & 2047)
					s += c
				}
				sink.Add(uint64(s))
			}, noClose
		}},
		{name: "pool.freelist_pair_ns", batch: 1024, open: poolPair(pool.AlgoFreelist)},
		{name: "pool.consttime_pair_ns", batch: 1024, open: poolPair(pool.AlgoConstTime)},
		{name: "partial.fifo_pair_ns", batch: 1024, open: listPair(func() partial.List { return partial.NewFIFO() })},
		{name: "partial.lifo_pair_ns", batch: 1024, open: listPair(func() partial.List { return partial.NewLIFO() })},
		{name: "core.pair_ns", batch: 1024, open: threadPair(coreThread(0, false), 8)},
		{name: "core.batch_pair_ns", batch: 1000, open: threadBatch(coreThread(0, false), 8, 1000)},
		{name: "core.sb_cycle_ns", batch: 32 * perSB, open: threadBatch(coreThread(0, false), sizeclass.MaxPayloadBytes, perSB)},
		{name: "core.remote_free_pair_ns", batch: 1024, open: func() (func(int), func()) {
			a := core.New(core.Config{Processors: 2})
			ta, tb := a.Thread(), a.Thread()
			return func(n int) {
				for i := 0; i < n; i++ {
					tb.Free(must(ta.Malloc(8)))
				}
			}, noClose
		}},
		{name: "core.large_pair_ns", batch: 256, open: threadPair(coreThread(0, false), 32<<10)},
		{name: "core.telemetry_pair_ns", batch: 1024, open: threadPair(coreThread(0, true), 8)},
		{name: "magazine.pair_ns", batch: 1024, open: threadPair(coreThread(64, false), 8)},
		{name: "magazine.batch_pair_ns", batch: 1000, open: threadBatch(coreThread(64, false), 8, 1000)},
		{name: "alloc.pair_ns", batch: 1024, open: threadPair(lockfree, 8)},
		{name: "alloc.thread_cycle_ns", batch: 64, maxPairs: 4096, open: func() (func(int), func()) {
			a := alloc.NewLockFree(alloc.Options{Processors: 1})
			return func(n int) {
				for i := 0; i < n; i++ {
					unregister(a.NewThread())
				}
			}, noClose
		}},
		{name: "alloc.hoard_pair_ns", batch: 1024, open: threadPair(backendThread("hoard"), 8)},
		{name: "alloc.ptmalloc_pair_ns", batch: 1024, open: threadPair(backendThread("ptmalloc"), 8)},
		{name: "alloc.serial_pair_ns", batch: 1024, open: threadPair(backendThread("serial"), 8)},
		{name: "alloc.chunkheap_pair_ns", batch: 1024, open: threadPair(backendThread("chunkheap"), 8)},
		{name: "alloc.buddy_pair_ns", batch: 1024, open: threadPair(backendThread("buddy"), 8)},
		{name: "offload.pair_ns", batch: 256, open: threadPair(func() (alloc.Thread, func()) {
			w := offload.New(core.New(core.Config{Processors: 1})).Worker()
			return w, w.Unregister
		}, 8)},
	}
}
