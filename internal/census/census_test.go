package census

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/shadow"
	"repro/internal/telemetry"
)

func testConfig() core.Config {
	return core.Config{
		Processors:   4,
		MagazineSize: 16,
		HeapConfig:   mem.Config{TotalWordsLog2: 28},
		Telemetry:    core.NewRecorder(telemetry.Config{}),
	}
}

// TestCensusQuiescent checks the exact-at-quiescence identities: with
// no operation in flight, used blocks equal what the caller holds plus
// magazine-cached blocks, and the fragmentation ratios are well-formed.
func TestCensusQuiescent(t *testing.T) {
	a := core.New(testConfig())
	th := a.Thread()

	sizes := []uint64{8, 100, 100, 300, 1024, 2000}
	ptrs := make([]mem.Ptr, 0, len(sizes))
	for _, sz := range sizes {
		p, err := th.Malloc(sz)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	// Free two into the magazine: they stay BlocksUsed but show up as
	// MagazineCached.
	th.Free(ptrs[1])
	th.Free(ptrs[2])
	held := uint64(len(sizes) - 2)

	c, dp := TakeLockFree(a)
	osl := TakeOS(a.Heap())

	if got := c.Totals.BlocksUsed; got != held+c.Totals.MagazineCached {
		t.Errorf("BlocksUsed = %d, want held %d + magazine %d",
			got, held, c.Totals.MagazineCached)
	}
	// At least the two frees are cached; refill batches may add more.
	if c.Totals.MagazineCached < 2 {
		t.Errorf("MagazineCached = %d, want >= 2", c.Totals.MagazineCached)
	}
	if c.Totals.Superblocks == 0 {
		t.Error("no live superblocks counted")
	}
	if osl.BumpOccupancy < 0 || osl.BumpOccupancy > 1 {
		t.Errorf("BumpOccupancy = %v", osl.BumpOccupancy)
	}
	if osl.ExternalFragRatio < 0 || osl.ExternalFragRatio > 1 {
		t.Errorf("ExternalFragRatio = %v", osl.ExternalFragRatio)
	}
	if osl.ReservedWords == 0 || osl.TotalWords == 0 {
		t.Errorf("ReservedWords = %d of %d despite live superblocks", osl.ReservedWords, osl.TotalWords)
	}
	if dp.Allocated == 0 || dp.OnFreelist > dp.Allocated {
		t.Errorf("descriptor pool: %d on freelist of %d allocated", dp.OnFreelist, dp.Allocated)
	}
	if c.Ops.Mallocs != uint64(len(sizes)) || c.Ops.Frees != 2 {
		t.Errorf("Ops = %d mallocs / %d frees, want %d / 2", c.Ops.Mallocs, c.Ops.Frees, len(sizes))
	}

	s := New(c, osl, dp).Summary()
	if s.BlocksUsed != c.Totals.BlocksUsed || s.ExternalFragPct != 100*osl.ExternalFragRatio {
		t.Errorf("Summary mismatch: %+v", s)
	}

	for _, p := range ptrs[3:] {
		th.Free(p)
	}
	th.Free(ptrs[0])
	th.Unregister()
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestCensusCountsStackedBlocksFree: a block another heap freed into an
// installed superblock sits on its remote stack until the owner takes
// the last credit; the census counts it free, not used.
func TestCensusCountsStackedBlocksFree(t *testing.T) {
	cfg := testConfig()
	cfg.MagazineSize = 0
	a := core.New(cfg)
	owner, other := a.Thread(), a.Thread() // processors 0 and 1
	p, err := owner.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	q, err := owner.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	other.Free(p)
	if n := other.OpStats().RemoteFrees; n != 1 {
		t.Fatalf("RemoteFrees = %d after one free into another heap's Active superblock, want 1", n)
	}
	c, _ := TakeLockFree(a)
	if c.Totals.BlocksUsed != 1 {
		t.Errorf("BlocksUsed = %d with one block held and one on the remote stack, want 1", c.Totals.BlocksUsed)
	}
	if err := a.CheckInvariants(1); err != nil {
		t.Fatal(err)
	}
	owner.Free(q)
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestCensusUnderChurn runs walkers against concurrent malloc/free
// churn. The walk must be race-detector-clean, never panic, and always
// produce internally well-formed numbers even while every identity is
// in flight. The differential oracle audits the churn itself, mirrored
// by hand as the alloc wrapper would (this package cannot import alloc):
// mallocs after the operation, frees before it.
func TestCensusUnderChurn(t *testing.T) {
	a := core.New(testConfig())
	oracle := shadow.New(shadow.Config{Name: "census-churn", Heap: a.Heap(), VerifyOnReuse: true})
	defer oracle.Close()

	const (
		workers = 4
		ops     = 4000
		walks   = 50
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := a.Thread()
			defer th.Unregister()
			free := func(p mem.Ptr) {
				if oracle.NoteFree(th.ID(), p) {
					th.Free(p)
				}
			}
			rng := rand.New(rand.NewSource(seed))
			live := make([]mem.Ptr, 0, 64)
			for i := 0; i < ops; i++ {
				if len(live) > 0 && rng.Intn(2) == 0 {
					j := rng.Intn(len(live))
					free(live[j])
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				} else {
					size := uint64(8 + rng.Intn(2000))
					p, err := th.Malloc(size)
					if err != nil {
						t.Error(err)
						return
					}
					oracle.NoteMalloc(th.ID(), p, size, th.UsableWords(p))
					live = append(live, p)
				}
			}
			for _, p := range live {
				free(p)
			}
		}(int64(w) + 1)
	}

	walkerDone := make(chan struct{})
	go func() {
		defer close(walkerDone)
		for i := 0; i < walks; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c, _ := TakeLockFree(a)
			// Racy but well-formed: totals are sums of per-class
			// non-negative values, ratios stay in range.
			var used, freeB uint64
			for _, cc := range c.Classes {
				used += cc.BlocksUsed
				freeB += cc.BlocksFree
			}
			if used != c.Totals.BlocksUsed || freeB != c.Totals.BlocksFree {
				t.Errorf("walk %d: totals disagree with class sums", i)
			}
			if r := TakeOS(a.Heap()).ExternalFragRatio; r < 0 || r > 1 {
				t.Errorf("walk %d: ext frag %v", i, r)
			}
		}
	}()

	wg.Wait()
	close(stop)
	<-walkerDone

	if err := oracle.Err(); err != nil {
		t.Fatal(err)
	}
	// Quiescent now: a final walk plus the invariant checker must agree
	// nothing is live.
	c, _ := TakeLockFree(a)
	if c.Totals.BlocksUsed != 0 {
		t.Errorf("quiescent BlocksUsed = %d, want 0", c.Totals.BlocksUsed)
	}
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}
