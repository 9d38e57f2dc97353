package offload

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sizeclass"
)

func newEngine(t *testing.T, cores, batch int) *Engine {
	t.Helper()
	return NewWith(core.New(core.Config{Processors: 4}), cores, batch)
}

// checkQuiesced verifies the engine wound down clean: no stranded
// batches, no live cores, and the allocator's books balance.
func checkQuiesced(t *testing.T, e *Engine) {
	t.Helper()
	st := e.Stats()
	if st.QueueDepth != 0 {
		t.Errorf("queue depth %d after quiesce, want 0 (stranded batches)", st.QueueDepth)
	}
	if st.LiveCores != 0 {
		t.Errorf("%d live cores after quiesce, want 0", st.LiveCores)
	}
	if st.Workers != 0 {
		t.Errorf("%d workers after quiesce, want 0", st.Workers)
	}
	agg := e.Allocator().Stats().Ops
	if agg.Mallocs != agg.Frees {
		t.Errorf("aggregate mallocs %d != frees %d at quiescence", agg.Mallocs, agg.Frees)
	}
	if err := e.Allocator().CheckInvariants(0); err != nil {
		t.Errorf("invariants after quiesce: %v", err)
	}
}

// TestWorkerBasic drives one worker through enough churn to exercise
// stash refills, free batching, and the quiesce drain.
func TestWorkerBasic(t *testing.T) {
	e := newEngine(t, 2, 8)
	w := e.Worker()

	live := make([]mem.Ptr, 0, 512)
	for i := 0; i < 2000; i++ {
		p, err := w.Malloc(uint64(16 + (i%7)*24))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, p)
		if len(live) >= 400 {
			for _, q := range live[:200] {
				w.Free(q)
			}
			live = append(live[:0], live[200:]...)
		}
	}
	for _, q := range live {
		w.Free(q)
	}
	w.Unregister()

	st := e.Stats()
	if st.StashHits == 0 {
		t.Error("no stash hits: the offload path never engaged")
	}
	if st.RefillBlocks == 0 || st.FreedBlocks == 0 {
		t.Errorf("refilled %d / batch-freed %d blocks, want both > 0", st.RefillBlocks, st.FreedBlocks)
	}
	// The cores count the batches they execute on their own handles and
	// the worker's handle counts its synchronous fallbacks, so the
	// engine's totals and the allocator's are the same blocks, once each.
	agg, own := e.Allocator().Stats().Ops, w.Thread().OpStats()
	if agg.Mallocs != st.RefillBlocks+own.Mallocs || agg.Frees != st.FreedBlocks+own.Frees {
		t.Errorf("allocator counts %d mallocs / %d frees; engine refilled %d + worker ran %d, engine freed %d + worker ran %d",
			agg.Mallocs, agg.Frees, st.RefillBlocks, own.Mallocs, st.FreedBlocks, own.Frees)
	}
	checkQuiesced(t, e)
}

// TestWorkerDistinctPointers checks the stash never hands out the same
// block twice while it is live.
func TestWorkerDistinctPointers(t *testing.T) {
	e := newEngine(t, 1, 16)
	w := e.Worker()
	seen := make(map[mem.Ptr]bool, 1024)
	ptrs := make([]mem.Ptr, 0, 1024)
	for i := 0; i < 1024; i++ {
		p, err := w.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if seen[p] {
			t.Fatalf("block %v handed out twice while live", p)
		}
		seen[p] = true
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		w.Free(p)
	}
	w.Unregister()
	checkQuiesced(t, e)
}

// TestWorkerConformance holds offload workers to the alloc.Thread
// contract every backend's handles meet (alloc's TestConformance):
// payload round trips across the size range including malloc(0) and a
// 1 MiB block, Free(nil), blocks freed by a worker other than the
// allocating one, and payload integrity under concurrent mixed-size
// churn — all through the stash, batch and fallback paths.
func TestWorkerConformance(t *testing.T) {
	e := newEngine(t, 2, 8)
	heap := e.Allocator().Heap()
	fill := func(p mem.Ptr, words, tag uint64) {
		for i := uint64(0); i < words; i++ {
			heap.Set(p.Add(i), tag+i)
		}
	}
	intact := func(p mem.Ptr, words, tag uint64) bool {
		for i := uint64(0); i < words; i++ {
			if heap.Get(p.Add(i)) != tag+i {
				return false
			}
		}
		return true
	}
	t.Run("roundtrip", func(t *testing.T) {
		w := e.Worker()
		defer w.Unregister()
		for _, sz := range []uint64{0, 1, 8, 16, 100, 1024, 2048, 1 << 20} {
			p, err := w.Malloc(sz)
			if err != nil || p.IsNil() {
				t.Fatalf("Malloc(%d) = %v, %v", sz, p, err)
			}
			words := (sz + 7) / 8
			fill(p, words, sz<<32)
			if !intact(p, words, sz<<32) {
				t.Fatalf("size %d: payload corrupted", sz)
			}
			w.Free(p)
		}
		w.Free(0)
	})
	t.Run("crossThreadFree", func(t *testing.T) {
		ch := make(chan mem.Ptr, 64)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(ch)
			w := e.Worker()
			defer w.Unregister()
			for i := uint64(0); i < 5000; i++ {
				p, err := w.Malloc(40)
				if err != nil {
					t.Errorf("malloc: %v", err)
					return
				}
				heap.Store(p, i)
				ch <- p
			}
		}()
		go func() {
			defer wg.Done()
			w := e.Worker()
			defer w.Unregister()
			want := uint64(0)
			for p := range ch {
				if got := heap.Load(p); got != want {
					t.Errorf("block %d: payload %d", want, got)
				}
				w.Free(p)
				want++
			}
		}()
		wg.Wait()
	})
	t.Run("integrityStress", func(t *testing.T) {
		type held struct {
			p          mem.Ptr
			words, tag uint64
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				w := e.Worker()
				defer w.Unregister()
				rng := rand.New(rand.NewSource(seed))
				var live []held
				for i := 0; i < 10000; i++ {
					if len(live) > 0 && (rng.Intn(2) == 0 || len(live) > 48) {
						k := rng.Intn(len(live))
						h := live[k]
						if !intact(h.p, h.words, h.tag) {
							t.Errorf("corruption at %v", h.p)
							return
						}
						w.Free(h.p)
						live[k] = live[len(live)-1]
						live = live[:len(live)-1]
						continue
					}
					sz := uint64(8 << rng.Intn(9))
					p, err := w.Malloc(sz)
					if err != nil {
						t.Errorf("malloc: %v", err)
						return
					}
					h := held{p, sz / 8, uint64(seed)<<48 | uint64(i)<<16}
					fill(h.p, h.words, h.tag)
					live = append(live, h)
				}
				for _, h := range live {
					w.Free(h.p)
				}
			}(int64(g) + 1)
		}
		wg.Wait()
	})
	checkQuiesced(t, e)
}

// TestLargeBypass verifies allocations beyond the size-class range go
// straight to the worker's own thread, and their frees are not
// deferred into a batch.
func TestLargeBypass(t *testing.T) {
	e := newEngine(t, 1, 8)
	w := e.Worker()
	p, err := w.Malloc(sizeclass.MaxPayloadBytes + 1)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	w.Free(p)
	after := e.Stats()
	if after.Submits != before.Submits {
		t.Error("large free was batched; want direct synchronous free")
	}
	w.Unregister()
	checkQuiesced(t, e)
}

// TestFallbackUnderExhaustion forces the queue-depth bound to zero so
// every submit is refused: all operations must complete synchronously
// (degraded, never deadlocked), with fallbacks counted.
func TestFallbackUnderExhaustion(t *testing.T) {
	e := newEngine(t, 1, 8)
	e.SetQueueBound(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := e.Worker()
			defer w.Unregister()
			ptrs := make([]mem.Ptr, 0, 64)
			for i := 0; i < 1500; i++ {
				p, err := w.Malloc(48)
				if err != nil {
					t.Error(err)
					return
				}
				ptrs = append(ptrs, p)
				if len(ptrs) == 64 {
					for _, q := range ptrs {
						w.Free(q)
					}
					ptrs = ptrs[:0]
				}
			}
			for _, q := range ptrs {
				w.Free(q)
			}
		}()
	}
	wg.Wait()
	st := e.Stats()
	if st.Fallbacks == 0 {
		t.Error("queue bound 0 produced no fallbacks")
	}
	if st.StashHits != 0 || st.RefillBlocks != 0 {
		t.Errorf("bound 0 still refilled (%d hits, %d blocks)", st.StashHits, st.RefillBlocks)
	}
	checkQuiesced(t, e)
}

// TestWorkerStorm churns worker registration concurrently with steady
// allocation traffic — the engine must restart/quiesce its core fleet
// across generations without losing blocks. Run with -race.
func TestWorkerStorm(t *testing.T) {
	e := newEngine(t, 2, 8)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 30; r++ {
				w := e.Worker()
				ptrs := make([]mem.Ptr, 0, 40)
				for i := 0; i < 40; i++ {
					p, err := w.Malloc(uint64(16 + (i%5)*32))
					if err != nil {
						t.Error(err)
						break
					}
					ptrs = append(ptrs, p)
				}
				for _, p := range ptrs {
					w.Free(p)
				}
				w.Unregister()
			}
		}()
	}
	wg.Wait()
	checkQuiesced(t, e)
}

// TestStopWithLiveWorkers force-stops the fleet while workers are mid
// traffic; they must degrade to synchronous fallback without deadlock,
// and a later registration must restart the fleet.
func TestStopWithLiveWorkers(t *testing.T) {
	e := newEngine(t, 2, 8)
	var phase atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := e.Worker()
			defer w.Unregister()
			ptrs := make([]mem.Ptr, 0, 32)
			for i := 0; i < 4000; i++ {
				if i == 1000 {
					phase.Add(1)
				}
				p, err := w.Malloc(64)
				if err != nil {
					t.Error(err)
					return
				}
				ptrs = append(ptrs, p)
				if len(ptrs) == 32 {
					for _, q := range ptrs {
						w.Free(q)
					}
					ptrs = ptrs[:0]
				}
			}
			for _, q := range ptrs {
				w.Free(q)
			}
		}()
	}
	// Stop once all workers are in the thick of it.
	for phase.Load() < 4 {
	}
	e.Stop()
	wg.Wait()
	checkQuiesced(t, e)

	// The fleet restarts on the next registration.
	w := e.Worker()
	p, err := w.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	w.Free(p)
	w.Unregister()
	checkQuiesced(t, e)
}

// TestCoreKillAdoption kills allocation cores at free and malloc hook
// points mid-batch. Every batch must still resolve — refill waiters
// fall back, free remainders are adopted and eventually executed —
// with at most the per-kill single-block leak the kill semantics
// allow, and replacement cores keep the engine serving.
func TestCoreKillAdoption(t *testing.T) {
	e := newEngine(t, 2, 8)
	a := e.Allocator()
	const maxKills = 20
	var kills atomic.Int32
	var step atomic.Uint64
	e.SetCoreHook(func(hp core.HookPoint) {
		if step.Add(1)%97 == 0 && kills.Add(1) <= maxKills {
			panic("offload-test-kill")
		}
	})

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := e.Worker()
			defer w.Unregister()
			ptrs := make([]mem.Ptr, 0, 48)
			for i := 0; i < 3000; i++ {
				p, err := w.Malloc(uint64(16 + (i%4)*48))
				if err != nil {
					t.Error(err)
					return
				}
				ptrs = append(ptrs, p)
				if len(ptrs) == 48 {
					for _, q := range ptrs {
						w.Free(q)
					}
					ptrs = ptrs[:0]
				}
			}
			for _, q := range ptrs {
				w.Free(q)
			}
		}()
	}
	wg.Wait()

	st := e.Stats()
	if st.CoreKills == 0 {
		t.Skip("no kills fired (timing); nothing to verify")
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth %d after quiesce, want 0 (stranded batches)", st.QueueDepth)
	}
	if st.LiveCores != 0 {
		t.Errorf("%d live cores after quiesce, want 0", st.LiveCores)
	}
	// Kills leak bounded memory (the in-flight block plus the dead
	// core's reservations) but must never lose track of whole batches:
	// post-mortem structural invariants hold with leaks tolerated.
	if err := a.CheckInvariants(-1); err != nil {
		t.Errorf("invariants after kills: %v", err)
	}
	t.Logf("kills=%d adopted=%d refillErrors=%d fallbacks=%d",
		st.CoreKills, st.AdoptedBlocks, st.RefillErrors, st.Fallbacks)
}

// killPlan shapes one fault-injection run against the allocation cores.
type killPlan struct {
	cores, batch int
	magazine     int            // core.Config.MagazineSize of the cores' allocator
	kills        int            // independent kill targets
	point        core.HookPoint // pins every target to one point; -1 draws one per target
	survivors    int
	ops          int // each survivor's quota
	seed         int64
}

// runKills kills allocation cores mid-batch through SetCoreHook while
// survivor workers churn, then checks what must hold wherever the cores
// died: every survivor finished its quota, at least one core was
// killed, the queue is empty after Stop (no stranded batch), and the
// heap is structurally intact (kills may leak, never corrupt).
func runKills(t *testing.T, p killPlan) Stats {
	t.Helper()
	a := core.New(core.Config{Processors: 4, MagazineSize: p.magazine})
	e := NewWith(a, p.cores, p.batch)
	rng := rand.New(rand.NewSource(p.seed))
	// Targets are independent, not a schedule: one whose point is never
	// reached simply does not fire and must not block the others.
	type target struct {
		point core.HookPoint
		skip  atomic.Int64
		fired atomic.Bool
	}
	targets := make([]*target, p.kills)
	for i := range targets {
		pt := p.point
		if pt < 0 {
			pt = core.HookPoint(rng.Intn(int(core.NumHookPoints)))
		}
		targets[i] = &target{point: pt}
		targets[i].skip.Store(rng.Int63n(4))
	}
	e.SetCoreHook(func(hp core.HookPoint) {
		for _, kt := range targets {
			if kt.point != hp || kt.fired.Load() || kt.skip.Add(-1) >= 0 {
				continue
			}
			if kt.fired.CompareAndSwap(false, true) {
				panic("offload-test-kill")
			}
		}
	})

	var finished atomic.Int32
	var wg sync.WaitGroup
	for s := 0; s < p.survivors; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			w := e.Worker()
			defer w.Unregister()
			r := rand.New(rand.NewSource(seed))
			var held []mem.Ptr
			for i := 0; i < p.ops; i++ {
				if len(held) > 0 && (r.Intn(2) == 0 || len(held) > 32) {
					w.Free(held[len(held)-1])
					held = held[:len(held)-1]
					continue
				}
				ptr, err := w.Malloc(uint64(8 << r.Intn(8)))
				if err != nil {
					t.Errorf("survivor malloc: %v", err)
					return
				}
				held = append(held, ptr)
			}
			for _, ptr := range held {
				w.Free(ptr)
			}
			finished.Add(1)
		}(int64(s) + 1000)
	}
	wg.Wait()
	e.Stop()

	st := e.Stats()
	if int(finished.Load()) != p.survivors {
		t.Errorf("%d of %d survivors finished their quota", finished.Load(), p.survivors)
	}
	if st.CoreKills == 0 {
		t.Error("no allocation core was killed; the run is vacuous")
	}
	if st.QueueDepth != 0 {
		t.Errorf("%d requests stranded in the queue after Stop", st.QueueDepth)
	}
	if err := a.CheckInvariants(-1); err != nil {
		t.Errorf("structure corrupted: %v", err)
	}
	return st
}

// TestCoreKillAtEveryPoint kills allocation cores mid-batch at each
// core hook point in turn. The magazine layer on the cores is chosen
// per point: on for the two magazine hook points (unreachable without
// it), off for the rest (which magazines would absorb). Run with -race.
func TestCoreKillAtEveryPoint(t *testing.T) {
	for p := core.HookPoint(0); p < core.NumHookPoints; p++ {
		t.Run(p.String(), func(t *testing.T) {
			mag := 0
			if p == core.HookMagRefillAfterReserve || p == core.HookMagFlushBeforeSplice {
				mag = 16
			}
			runKills(t, killPlan{
				cores: 2, batch: 8, magazine: mag,
				kills: 2, point: p,
				survivors: 2, ops: 20000,
				seed: int64(p) + 1,
			})
		})
	}
}

// TestCoreMassacre kills many allocation cores at random points while
// survivors hammer the offload path.
func TestCoreMassacre(t *testing.T) {
	st := runKills(t, killPlan{
		cores: 3, batch: 16,
		kills: 12, point: -1,
		survivors: 4, ops: 30000,
		seed: 7,
	})
	t.Logf("kills=%d adopted=%d fallbacks=%d", st.CoreKills, st.AdoptedBlocks, st.Fallbacks)
}
