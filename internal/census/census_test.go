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

func testConfig(sampleRate int) core.Config {
	cfg := core.Config{
		Processors:   4,
		MagazineSize: 16,
		HeapConfig:   mem.Config{TotalWordsLog2: 28},
	}
	if sampleRate > 0 {
		cfg.Telemetry = core.NewRecorder(telemetry.Config{SampleRate: sampleRate})
	}
	return cfg
}

// TestCensusQuiescent checks the exact-at-quiescence identities: with
// no operation in flight, used blocks equal what the caller holds plus
// magazine-cached blocks, every sampled allocation is visible, and the
// fragmentation ratios are well-formed.
func TestCensusQuiescent(t *testing.T) {
	a := core.New(testConfig(1)) // sample every malloc
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

	c, dp, smp := TakeLockFree(a)
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
	if !smp.Enabled {
		t.Fatal("sampler not reported enabled")
	}
	// Rate 1 with no evictions: every live block is a live sample.
	if got := smp.Ages.Count(); got != held {
		t.Errorf("live samples = %d, want %d (held blocks)", got, held)
	}
	if len(smp.Sites) == 0 {
		t.Error("no call sites attributed")
	}
	var siteLive uint64
	for _, sc := range smp.Sites {
		siteLive += sc.Live
		if sc.Func == "" {
			t.Errorf("site pc=%#x unresolved", sc.PC)
		}
	}
	if siteLive != held {
		t.Errorf("site live sum = %d, want %d", siteLive, held)
	}
	if c.Totals.InternalFragRatio < 0 || c.Totals.InternalFragRatio > 1 {
		t.Errorf("InternalFragRatio = %v, want [0,1]", c.Totals.InternalFragRatio)
	}
	// 300 B in a larger class guarantees some waste was sampled.
	if c.Totals.InternalFragRatio == 0 {
		t.Error("InternalFragRatio = 0 with known-wasteful requests")
	}
	for _, cc := range c.Classes {
		if cc.SampledLive > 0 && (cc.InternalFragRatio < 0 || cc.InternalFragRatio > 1) {
			t.Errorf("class %d InternalFragRatio = %v", cc.Class, cc.InternalFragRatio)
		}
		if cc.SampledLive == 0 && cc.InternalFragRatio != -1 {
			t.Errorf("class %d unsampled frag = %v, want -1", cc.Class, cc.InternalFragRatio)
		}
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
	if smp.AgeP99NS < smp.AgeP50NS {
		t.Errorf("age p99 %d < p50 %d", smp.AgeP99NS, smp.AgeP50NS)
	}
	if smp.OldestNS <= 0 {
		t.Errorf("OldestNS = %d, want > 0", smp.OldestNS)
	}
	if c.Ops.Mallocs != uint64(len(sizes)) || c.Ops.Frees != 2 {
		t.Errorf("Ops = %d mallocs / %d frees, want %d / 2", c.Ops.Mallocs, c.Ops.Frees, len(sizes))
	}

	s := New(c, osl, dp, smp).Summary()
	if s.BlocksUsed != c.Totals.BlocksUsed || s.LiveSamples != held || s.ExternalFragPct != 100*osl.ExternalFragRatio {
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

// TestCensusNoSampler: without telemetry the walk still works and the
// sampled sections are absent.
func TestCensusNoSampler(t *testing.T) {
	a := core.New(testConfig(0))
	th := a.Thread()
	p, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	c, dp, smp := TakeLockFree(a)
	if smp.Enabled {
		t.Error("sampler reported enabled without telemetry")
	}
	if c.Totals.InternalFragRatio != -1 {
		t.Errorf("InternalFragRatio = %v, want -1 unsampled", c.Totals.InternalFragRatio)
	}
	if c.Totals.BlocksUsed != 1+c.Totals.MagazineCached {
		t.Errorf("BlocksUsed = %d with one live block", c.Totals.BlocksUsed)
	}
	if s := New(c, dp, smp).Summary(); s.InternalFragPct != -1 {
		t.Errorf("Summary.InternalFragPct = %v, want -1", s.InternalFragPct)
	}
	th.Free(p)
	th.Unregister()
}

// TestCensusUnderChurn runs walkers against concurrent malloc/free
// churn. The walk must be race-detector-clean, never panic, and always
// produce internally well-formed numbers even while every identity is
// in flight. The differential oracle audits the churn itself, mirrored
// by hand as the alloc wrapper would (this package cannot import alloc):
// mallocs after the operation, frees before it.
func TestCensusUnderChurn(t *testing.T) {
	a := core.New(testConfig(8))
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
			c, _, _ := TakeLockFree(a)
			// Racy but well-formed: totals are sums of per-class
			// non-negative values, ratios stay in range.
			var used, freeB uint64
			for _, cc := range c.Classes {
				used += cc.BlocksUsed
				freeB += cc.BlocksFree
				if cc.SampledLive > 0 && (cc.InternalFragRatio < 0 || cc.InternalFragRatio > 1) {
					t.Errorf("walk %d: class %d frag %v", i, cc.Class, cc.InternalFragRatio)
				}
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
	c, _, _ := TakeLockFree(a)
	if c.Totals.BlocksUsed != 0 {
		t.Errorf("quiescent BlocksUsed = %d, want 0", c.Totals.BlocksUsed)
	}
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}
