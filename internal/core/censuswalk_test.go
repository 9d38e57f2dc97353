package core

import (
	"sync"
	"testing"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/pool"
)

// TestWalkAccountingQuiescent checks the census identity the walk
// primitives promise at quiescence: summed over non-EMPTY superblocks,
// (MaxCount - FreeCount) minus the Active words' reservations equals
// the blocks the user holds plus the magazine-cached ones.
func TestWalkAccountingQuiescent(t *testing.T) {
	cfg := testConfig()
	cfg.MagazineSize = 16
	a := newTestAllocator(t, cfg)
	th := a.Thread()

	var held []mem.Ptr
	for i := 0; i < 40; i++ {
		p, err := th.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, p)
	}
	// Ten frees land in the thread's magazine: still carved out of
	// their superblocks, so BlocksUsed-style accounting must count them.
	for i := 0; i < 10; i++ {
		th.Free(held[len(held)-1])
		held = held[:len(held)-1]
	}

	reserved := map[uint64]uint64{}
	a.WalkActive(func(ai ActiveInfo) {
		reserved[ai.Desc] += ai.Credits + 1
	})

	var used uint64
	a.WalkSuperblocks(func(sb SuperblockInfo) bool {
		if sb.State == atomicx.StateEmpty {
			return true
		}
		carved := sb.MaxCount - sb.FreeCount
		if res := reserved[sb.Desc]; res > carved {
			t.Errorf("desc %d: reserved %d > carved %d", sb.Desc, res, carved)
		} else {
			carved -= res
		}
		used += carved
		return true
	})

	var magged uint64
	for _, n := range a.MagazineCounts() {
		magged += n
	}
	if wantUsed := uint64(len(held)) + magged; used != wantUsed {
		t.Errorf("walk used = %d, want held %d + magazine %d = %d",
			used, len(held), magged, wantUsed)
	}

	if lens := a.PartialListLens(); len(lens) != len(a.MagazineCounts()) {
		t.Errorf("PartialListLens classes %d != MagazineCounts classes %d",
			len(lens), len(a.MagazineCounts()))
	}

	for _, p := range held {
		th.Free(p)
	}
	th.Unregister()
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestWalkSuperblocksEarlyStop(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	// Two classes guarantee at least two initialized descriptors.
	p1, _ := th.Malloc(8)
	p2, _ := th.Malloc(1024)
	visits := 0
	a.WalkSuperblocks(func(SuperblockInfo) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Errorf("visit=false stopped after %d visits, want 1", visits)
	}
	th.Free(p1)
	th.Free(p2)
}

// TestCensusConstTimeBackendChurn is the census counterpart of the
// descriptor-backend ablation: with the Blelloch–Wei pool behind the
// descriptor table, DescStripeFree and WalkSuperblocks must keep their
// identities while churn runs — the slot walk stays bounded and has
// one entry per slot (a slot per processor), visited superblocks are internally sane, and at quiescence
// the walks reconcile exactly with the retired counter.
func TestCensusConstTimeBackendChurn(t *testing.T) {
	cfg := testConfig()
	cfg.DescAlgo = pool.AlgoConstTime
	cfg.Processors = 3
	a := newTestAllocator(t, cfg)
	stop := make(chan struct{})
	var churn sync.WaitGroup
	for g := 0; g < 4; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			th := a.Thread()
			var held []mem.Ptr
			// Large-ish blocks (few per superblock) keep descriptors
			// churning through the constant-time pool.
			for i := 0; i < 2000; i++ {
				if len(held) > 12 {
					for _, p := range held {
						th.Free(p)
					}
					held = held[:0]
					continue
				}
				p, err := th.Malloc(2048)
				if err != nil {
					t.Error(err)
					return
				}
				held = append(held, p)
			}
			for _, p := range held {
				th.Free(p)
			}
			th.Unregister()
		}(g)
	}
	var walker sync.WaitGroup
	walker.Add(1)
	go func() {
		defer walker.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			free := a.DescStripeFree()
			if len(free) != a.Processors() {
				t.Errorf("DescStripeFree has %d slots, want one per processor, %d", len(free), a.Processors())
				return
			}
			var sum uint64
			for _, n := range free {
				sum += n
			}
			// Racy walk: individual entries may be off by in-flight
			// batches, but the walk must stay bounded by the table.
			if sum > 4*(a.descs.Allocated()+1) {
				t.Errorf("stripe walk unbounded: %d free of %d allocated", sum, a.descs.Allocated())
				return
			}
			var visited uint64
			a.WalkSuperblocks(func(sb SuperblockInfo) bool {
				visited++
				// Limit() is re-read per visit: the pool grows under the
				// walk, and the walk may legitimately see the new chunk.
				if limit := a.descs.Limit(); sb.Desc < a.descs.First() || sb.Desc >= limit {
					t.Errorf("walk visited desc %d outside [%d, %d)", sb.Desc, a.descs.First(), limit)
					return false
				}
				if sb.MaxCount == 0 || sb.FreeCount > sb.MaxCount {
					t.Errorf("desc %d: free %d / max %d (torn?)", sb.Desc, sb.FreeCount, sb.MaxCount)
					return false
				}
				return true
			})
			if visited > a.descs.Allocated() {
				t.Errorf("walk visited %d descriptors, table holds %d", visited, a.descs.Allocated())
				return
			}
		}
	}()
	churn.Wait()
	close(stop)
	walker.Wait()
	// Quiescent: exact identities, including the full CheckInvariants
	// reconciliation (FreeIndices vs Retired vs Allocated).
	var sum uint64
	for _, n := range a.DescStripeFree() {
		sum += n
	}
	if sum != a.descs.Retired() {
		t.Errorf("quiescent stripe walk %d != retired %d", sum, a.descs.Retired())
	}
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestWalkSuperblocksDuringChurn runs the walk concurrently with
// malloc/free traffic: every visited record must be internally sane
// (single-load semantics — no torn anchors), and the walk must never
// panic even while the descriptor pool grows underneath it.
func TestWalkSuperblocksDuringChurn(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	stop := make(chan struct{})
	var churn sync.WaitGroup
	for g := 0; g < 4; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			th := a.Thread()
			var held []mem.Ptr
			for i := 0; i < 3000; i++ {
				if len(held) > 16 {
					th.Free(held[len(held)-1])
					held = held[:len(held)-1]
					continue
				}
				p, err := th.Malloc(uint64(8 << (i % 9)))
				if err != nil {
					t.Error(err)
					return
				}
				held = append(held, p)
			}
			for _, p := range held {
				th.Free(p)
			}
			th.Unregister()
		}(g)
	}
	var walker sync.WaitGroup
	walker.Add(1)
	go func() {
		defer walker.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			a.WalkSuperblocks(func(sb SuperblockInfo) bool {
				if sb.MaxCount == 0 {
					t.Error("visited uninitialized superblock")
				}
				if sb.FreeCount > sb.MaxCount {
					t.Errorf("desc %d: free %d > max %d (torn anchor?)",
						sb.Desc, sb.FreeCount, sb.MaxCount)
				}
				if sb.State > atomicx.StateEmpty {
					t.Errorf("desc %d: impossible state %d", sb.Desc, sb.State)
				}
				return true
			})
		}
	}()
	churn.Wait()
	close(stop)
	walker.Wait()
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}
