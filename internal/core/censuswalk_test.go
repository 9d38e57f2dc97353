package core

import (
	"sync"
	"testing"

	"repro/internal/atomicx"
	"repro/internal/mem"
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
