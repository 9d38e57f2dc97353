package sched

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/alloc"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sizeclass"
)

func exploreAlloc() Target {
	return lockFree(core.Config{
		Processors: 1, // one heap: maximum interference between threads
		HeapConfig: mem.Config{SegmentWordsLog2: 16, TotalWordsLog2: 26},
	}, false)
}

// quiescent is the usual terminal check: the strict structural check
// with live small blocks still held.
func quiescent(live int64) func(Target) error {
	return func(t Target) error { return t.Inspect(live).InvariantErr }
}

// TestExploreMallocFreePair enumerates every interleaving of two
// threads each doing malloc(8);free and checks structural invariants
// and zero leakage after each.
func TestExploreMallocFreePair(t *testing.T) {
	res, err := Explore(ExploreConfig{
		NewTarget: exploreAlloc,
		Scripts: []Script{
			func(th alloc.Thread) {
				p, err := th.Malloc(8)
				if err != nil {
					panic(err)
				}
				th.Free(p)
			},
			func(th alloc.Thread) {
				p, err := th.Malloc(8)
				if err != nil {
					panic(err)
				}
				th.Free(p)
			},
		},
		Check:        quiescent(0),
		MaxSchedules: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedules < 10 {
		t.Errorf("only %d schedules explored; yields not interleaving", res.Schedules)
	}
	t.Logf("explored %d interleavings (truncated=%v)", res.Schedules, res.Truncated)
}

// TestExploreDistinctBlocks: in every interleaving of two concurrent
// mallocs, the returned blocks must be distinct.
func TestExploreDistinctBlocks(t *testing.T) {
	var p0, p1 atomic.Uint64
	res, err := Explore(ExploreConfig{
		NewTarget: func() Target {
			p0.Store(0)
			p1.Store(0)
			return exploreAlloc()
		},
		Scripts: []Script{
			func(th alloc.Thread) {
				p, err := th.Malloc(8)
				if err != nil {
					panic(err)
				}
				p0.Store(uint64(p))
			},
			func(th alloc.Thread) {
				p, err := th.Malloc(8)
				if err != nil {
					panic(err)
				}
				p1.Store(uint64(p))
			},
		},
		Check: func(t Target) error {
			if p0.Load() == 0 || p1.Load() == 0 {
				return fmt.Errorf("a malloc did not complete")
			}
			if p0.Load() == p1.Load() {
				return fmt.Errorf("both threads received block %#x", p0.Load())
			}
			return quiescent(2)(t)
		},
		MaxSchedules: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d interleavings", res.Schedules)
}

// TestExploreRemoteFree: thread B frees A's block if it is published
// by the time B looks — both outcomes must leave a consistent state.
func TestExploreRemoteFree(t *testing.T) {
	var published atomic.Uint64
	var consumed atomic.Bool
	res, err := Explore(ExploreConfig{
		NewTarget: func() Target {
			published.Store(0)
			consumed.Store(false)
			return exploreAlloc()
		},
		Scripts: []Script{
			func(th alloc.Thread) {
				p, err := th.Malloc(16)
				if err != nil {
					panic(err)
				}
				published.Store(uint64(p))
			},
			func(th alloc.Thread) {
				// B does its own work, then frees A's block if visible.
				q, err := th.Malloc(16)
				if err != nil {
					panic(err)
				}
				th.Free(q)
				if p := published.Swap(0); p != 0 {
					th.Free(mem.Ptr(p))
					consumed.Store(true)
				}
			},
		},
		Check: func(t Target) error {
			want := int64(1) // A's block lives unless B consumed it
			if consumed.Load() {
				want = 0
			}
			return quiescent(want)(t)
		},
		MaxSchedules: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d interleavings", res.Schedules)
}

// TestExploreSuperblockDrain: two threads race to fill a few-block
// superblock past FULL and back; every interleaving of the
// FULL/PARTIAL/EMPTY transitions must stay consistent.
func TestExploreSuperblockDrain(t *testing.T) {
	t.Parallel() // single-threaded by construction: the director runs one thread at a time
	for _, c := range []struct {
		size   uint64
		blocks int
	}{
		// 7 per superblock; 4+4 allocations from two threads force a
		// FULL transition and a second superblock in some interleavings.
		{2048, 4},
		// 2 per superblock: no malloc finds a credit to leave behind, so
		// each one carves a superblock, takes a last credit or goes to
		// a PARTIAL one, and every second free empties a superblock —
		// on 16 KiB and on 12 KiB superblocks.
		{sizeclass.MaxPayloadBytes, 2},
		{6136, 2},
	} {
		script := func(th alloc.Thread) {
			var ps []mem.Ptr
			for i := 0; i < c.blocks; i++ {
				p, err := th.Malloc(c.size)
				if err != nil {
					panic(err)
				}
				ps = append(ps, p)
			}
			for _, p := range ps {
				th.Free(p)
			}
		}
		res, err := Explore(ExploreConfig{
			NewTarget:    exploreAlloc,
			Scripts:      []Script{script, script},
			Check:        quiescent(0),
			MaxSchedules: 800, // the full space is large; a bounded prefix
		})
		if err != nil {
			t.Fatalf("%d x %d B: %v", c.blocks, c.size, err)
		}
		if !res.Truncated && res.Schedules < 100 {
			t.Errorf("%d x %d B: suspiciously small space: %d schedules", c.blocks, c.size, res.Schedules)
		}
		t.Logf("%d x %d B: explored %d interleavings (truncated=%v)", c.blocks, c.size, res.Schedules, res.Truncated)
	}
}

// TestExploreNoCreditsVariant: with MaxCredits=1 every malloc takes
// the last credit and runs UpdateActive — the densest interleaving of
// the §3.2.3 credit machinery. Exhaustive for two malloc/free pairs.
func TestExploreNoCreditsVariant(t *testing.T) {
	pair := func(th alloc.Thread) {
		p, err := th.Malloc(8)
		if err != nil {
			panic(err)
		}
		th.Free(p)
	}
	res, err := Explore(ExploreConfig{
		NewTarget: func() Target {
			return lockFree(core.Config{
				Processors: 1,
				MaxCredits: 1,
				HeapConfig: mem.Config{SegmentWordsLog2: 16, TotalWordsLog2: 26},
			}, false)
		},
		Scripts:      []Script{pair, pair},
		Check:        quiescent(0),
		MaxSchedules: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d interleavings (truncated=%v)", res.Schedules, res.Truncated)
}

// TestExploreHyperblocks runs the drain scenario with the hyperblock
// layer enabled, interleaving its lock-free superblock recycling with
// the allocator's EMPTY transitions.
func TestExploreHyperblocks(t *testing.T) {
	t.Parallel() // single-threaded by construction: the director runs one thread at a time
	script := func(th alloc.Thread) {
		var ps []mem.Ptr
		for i := 0; i < 3; i++ {
			p, err := th.Malloc(2048)
			if err != nil {
				panic(err)
			}
			ps = append(ps, p)
		}
		for _, p := range ps {
			th.Free(p)
		}
	}
	res, err := Explore(ExploreConfig{
		NewTarget: func() Target {
			return lockFree(core.Config{
				Processors:  1,
				Hyperblocks: true,
				HeapConfig:  mem.Config{SegmentWordsLog2: 18, TotalWordsLog2: 27},
			}, false)
		},
		Scripts:      []Script{script, script},
		Check:        quiescent(0),
		MaxSchedules: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d interleavings (truncated=%v)", res.Schedules, res.Truncated)
}

// TestExploreThreeThreads: a bounded sweep of a 3-thread configuration
// (malloc/free pairs) for cross-checking beyond pairwise interactions.
func TestExploreThreeThreads(t *testing.T) {
	t.Parallel() // single-threaded by construction: the director runs one thread at a time
	pair := func(th alloc.Thread) {
		p, err := th.Malloc(8)
		if err != nil {
			panic(err)
		}
		th.Free(p)
	}
	res, err := Explore(ExploreConfig{
		NewTarget:    exploreAlloc,
		Scripts:      []Script{pair, pair, pair},
		Check:        quiescent(0),
		MaxSchedules: 1200,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("explored %d interleavings (truncated=%v)", res.Schedules, res.Truncated)
}

// TestExploreFlushGroupMeetsSingleFree: one thread's magazine flush
// group and another thread's single Free go back to the same FULL
// superblock, so two calls of release — a chain of two and a chain of
// one — race on one anchor: whichever loses the CAS rewrites its tail
// link, exactly one of them leaves FULL and must link the superblock
// back in, and where nothing stays allocated the later one empties it
// while the earlier may still be on its way to HeapPutPartial.
// Exhaustive at hook granularity. The terminal probe is one more malloc
// of the class: it must find the PARTIAL superblock (or shed the EMPTY
// descriptor from the Partial slot), so that exactly one descriptor is
// in use afterwards — a superblock or descriptor either call dropped
// would make it two.
func TestExploreFlushGroupMeetsSingleFree(t *testing.T) {
	t.Parallel() // single-threaded by construction: the director runs one thread at a time
	for _, c := range []struct {
		size   uint64
		blocks int
	}{
		{4088, 4}, // one block stays allocated: the superblock ends PARTIAL
		{5448, 3}, // none does: it ends EMPTY
	} {
		var a *core.Allocator
		var ptrs []mem.Ptr
		stays := c.blocks - 3
		res, err := Explore(ExploreConfig{
			NewTarget: func() Target {
				heap := mem.Config{SegmentWordsLog2: 16, TotalWordsLog2: 26}
				la := alloc.NewLockFree(alloc.Options{
					HeapConfig: heap,
					LockFree:   core.Config{Processors: 1, MagazineSize: 8, HeapConfig: heap},
				})
				a = la.(alloc.CoreAccessor).Core()
				h := alloc.HarnessOf(la)
				th := h.NewThread(nil)
				ptrs = ptrs[:0]
				for i := 0; i < c.blocks; i++ {
					p, err := th.Malloc(c.size)
					if err != nil {
						panic(err)
					}
					ptrs = append(ptrs, p)
				}
				th.(alloc.Unregisterer).Unregister()
				return h
			},
			Scripts: []Script{
				func(th alloc.Thread) { // the flush group
					th.Free(ptrs[0])
					th.Free(ptrs[1])
					th.(alloc.Unregisterer).Unregister()
				},
				func(th alloc.Thread) { // the single Free: an unregistered handle has no magazine
					th.(alloc.Unregisterer).Unregister()
					th.Free(ptrs[2])
				},
			},
			Check: func(t Target) error {
				th := t.NewThread(nil)
				if _, err := th.Malloc(c.size); err != nil {
					return err
				}
				th.(alloc.Unregisterer).Unregister()
				st := a.Stats()
				if inUse := st.DescsAllocated - st.DescsOnFreelist; inUse != 1 {
					return fmt.Errorf("%d descriptors in use after the probe malloc, want 1", inUse)
				}
				if want := uint64(1 - stays); st.Ops.EmptySBFreed != want {
					return fmt.Errorf("%d superblocks emptied, want %d", st.Ops.EmptySBFreed, want)
				}
				return quiescent(int64(stays + 1))(t)
			},
		})
		if err != nil {
			t.Fatalf("%d x %d B: %v", c.blocks, c.size, err)
		}
		if res.Truncated || res.Schedules < 10 {
			t.Errorf("%d x %d B: %d schedules (truncated=%v), want the whole of a space of at least 10",
				c.blocks, c.size, res.Schedules, res.Truncated)
		}
		t.Logf("%d x %d B: explored %d interleavings", c.blocks, c.size, res.Schedules)
	}
}

// TestExploreRemoteFreeMeetsLastCredit: thread A, on processor heap 0,
// mallocs three blocks, the third through its superblock's last credit
// (MaxCredits 2), while thread B, on heap 1, frees each of A's first two
// blocks that A has published by the time B looks. B's frees are remote:
// pushes onto the superblock's remote stack while it is open, Figure 6
// once A's last-credit pop has closed it. In every interleaving of the
// pushes with A's pops, close, splice and reinstall, the structure must
// check out with exact block counts.
func TestExploreRemoteFreeMeetsLastCredit(t *testing.T) {
	t.Parallel() // single-threaded by construction: the director runs one thread at a time
	var pub [2]atomic.Uint64
	var freed atomic.Int64
	var a *core.Allocator
	var pushedTwo, spliced, figure6 int // schedules
	res, err := Explore(ExploreConfig{
		NewTarget: func() Target {
			for i := range pub {
				pub[i].Store(0)
			}
			freed.Store(0)
			heap := mem.Config{SegmentWordsLog2: 16, TotalWordsLog2: 26}
			la := alloc.NewLockFree(alloc.Options{
				HeapConfig: heap,
				LockFree:   core.Config{Processors: 2, MaxCredits: 2, HeapConfig: heap},
			})
			a = la.(alloc.CoreAccessor).Core()
			return alloc.HarnessOf(la)
		},
		Scripts: []Script{
			func(th alloc.Thread) { // A: thread 0, heap 0
				for i := 0; i < 3; i++ {
					p, err := th.Malloc(16)
					if err != nil {
						panic(err)
					}
					if i < len(pub) {
						pub[i].Store(uint64(p))
					}
				}
			},
			func(th alloc.Thread) { // B: thread 1, heap 1
				for i := range pub {
					if p := pub[i].Load(); p != 0 {
						th.Free(mem.Ptr(p))
						freed.Add(1)
					}
				}
			},
		},
		Check: func(t Target) error {
			if err := t.Inspect(3 - freed.Load()).InvariantErr; err != nil {
				return err
			}
			st := a.Stats().Ops
			if st.RemoteFrees > uint64(freed.Load()) || st.RemoteSplices > 1 {
				return fmt.Errorf("%d remote frees and %d splices after %d frees", st.RemoteFrees, st.RemoteSplices, freed.Load())
			}
			if st.RemoteFrees == 2 {
				pushedTwo++
			}
			if st.RemoteSplices == 1 {
				spliced++
			}
			if st.RemoteFrees < uint64(freed.Load()) {
				figure6++
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || pushedTwo == 0 || spliced == 0 || figure6 == 0 {
		t.Errorf("%d schedules (truncated=%v): %d pushed both blocks, %d spliced, %d freed through Figure 6; want the whole space and each case",
			res.Schedules, res.Truncated, pushedTwo, spliced, figure6)
	}
	t.Logf("explored %d interleavings: %d pushed both blocks, %d spliced a stack, %d freed a block through Figure 6",
		res.Schedules, pushedTwo, spliced, figure6)
}
