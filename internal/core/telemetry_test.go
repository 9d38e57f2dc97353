package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
	"repro/internal/telemetry"
)

// TestTelemetryIntegration runs a real malloc/free workload with the
// telemetry layer attached and checks that the snapshot is internally
// consistent: operation counts match the work done, retry sites carry
// only known names, and the flight recorder captured events.
func TestTelemetryIntegration(t *testing.T) {
	cfg := testConfig()
	cfg.Processors = 2 // force heap sharing so retries actually occur
	rec := NewRecorder(telemetry.Config{})
	cfg.Telemetry = rec
	a := New(cfg)
	if a.Telemetry() != rec {
		t.Fatal("Telemetry() did not return the attached recorder")
	}

	const workers = 8
	const iters = 4000
	sizes := []uint64{8, 64, 200, 1024, 40000} // last one is a large block
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := a.Thread()
			rng := rand.New(rand.NewSource(seed))
			var live []mem.Ptr
			for i := 0; i < iters; i++ {
				p, err := th.Malloc(sizes[rng.Intn(len(sizes))])
				if err != nil {
					t.Error(err)
					return
				}
				live = append(live, p)
				if len(live) > 32 {
					k := rng.Intn(len(live))
					th.Free(live[k])
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			for _, p := range live {
				th.Free(p)
			}
		}(int64(g))
	}
	wg.Wait()

	snap := rec.Snapshot()
	const total = workers * iters
	if snap.Malloc.Count != total {
		t.Errorf("snapshot malloc count = %d, want %d", snap.Malloc.Count, total)
	}
	if snap.Free.Count != total {
		t.Errorf("snapshot free count = %d, want %d", snap.Free.Count, total)
	}
	if snap.Threads != workers {
		t.Errorf("snapshot threads = %d, want %d", snap.Threads, workers)
	}
	for site := range snap.Retries {
		known := false
		for s := telemetry.Site(0); s < telemetry.NumSites; s++ {
			if s.String() == site {
				known = true
				break
			}
		}
		if !known {
			t.Errorf("snapshot contains unknown retry site %q", site)
		}
	}
	// Per-class histogram rows must sum to the aggregate.
	var perClassMallocs uint64
	for _, row := range snap.PerClass {
		if row.Op == "malloc" {
			perClassMallocs += row.Count
		}
	}
	if perClassMallocs != snap.Malloc.Count {
		t.Errorf("per-class malloc rows sum to %d, want %d", perClassMallocs, snap.Malloc.Count)
	}
	if snap.EventsRecorded == 0 {
		t.Error("flight recorder captured no events")
	}
	if snap.Malloc.P50NS == 0 || snap.Malloc.P99NS < snap.Malloc.P50NS {
		t.Errorf("implausible malloc latency quantiles: p50=%d p99=%d",
			snap.Malloc.P50NS, snap.Malloc.P99NS)
	}
}

// TestStatsLiveSampling is the contract test of Stats under batched
// publication, with magazines off and on: Stats may be called from any
// goroutine while workers are mid-operation (race-detector clean) and
// every sampled counter is monotone; a handle still in use is behind by
// fewer than pubBatch events per batched counter — exactly: the owner's
// count rounded down to the batch, a function of the handle's own event
// count alone; and after Unregister every identity holds exactly.
func TestStatsLiveSampling(t *testing.T) {
	for _, magazine := range []int{0, 8} {
		t.Run(fmt.Sprintf("magazine=%d", magazine), func(t *testing.T) {
			cfg := testConfig()
			cfg.MagazineSize = magazine
			statsLiveSampling(t, New(cfg))
		})
	}
}

func statsLiveSampling(t *testing.T, a *Allocator) {
	const workers = 2
	const iters = 5001 // not a multiple of pubBatch: the handles end mid-batch

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	var samples atomic.Uint64
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		var prev OpStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := a.Stats().Ops
			samples.Add(1)
			if s.Mallocs < prev.Mallocs || s.Frees < prev.Frees ||
				s.FromActive < prev.FromActive || s.MagazineHits < prev.MagazineHits {
				t.Errorf("live Stats sample went backwards: %+v after %+v", s, prev)
				return
			}
			prev = s
		}
	}()

	// The workers are done in a millisecond: they start once the sampler
	// is running, or on a loaded machine it may never get a turn.
	for samples.Load() == 0 {
		runtime.Gosched()
	}

	// Each worker churns, parks with its handle still registered while
	// the test compares Stats against the handle's own words, then
	// unregisters.
	ths := make([]*Thread, workers)
	var parked, wg sync.WaitGroup
	release := make(chan struct{})
	for g := range ths {
		ths[g] = a.Thread()
		parked.Add(1)
		wg.Add(1)
		go func(th *Thread, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var live []mem.Ptr
			for i := 0; i < iters; i++ {
				p, err := th.Malloc(uint64(8 + rng.Intn(500)))
				if err != nil {
					t.Error(err)
					break
				}
				live = append(live, p)
				if len(live) > 16 {
					th.Free(live[0])
					live = live[1:]
				}
			}
			for _, p := range live {
				th.Free(p)
			}
			parked.Done()
			<-release
			th.Unregister()
		}(ths[g], int64(g))
	}
	parked.Wait()
	close(stop)
	sampler.Wait()
	if samples.Load() == 0 {
		t.Fatal("sampler never ran")
	}

	const mask = pubBatch - 1
	for _, th := range ths {
		got := th.OpStats()
		if th.frees != iters {
			t.Errorf("thread %d counted %d frees, performed %d", th.id, th.frees, iters)
		}
		if n := th.magHits + th.fromActive + got.FromPartial + got.FromNewSB; n != iters {
			t.Errorf("thread %d counted %d mallocs, performed %d", th.id, n, iters)
		}
		if got.Frees != th.frees&^mask || got.FromActive != th.fromActive&^mask || got.MagazineHits != th.magHits&^mask {
			t.Errorf("thread %d in use: Stats has frees/active/hits %d/%d/%d, want the owner's %d/%d/%d rounded down to %d",
				th.id, got.Frees, got.FromActive, got.MagazineHits, th.frees, th.fromActive, th.magHits, pubBatch)
		}
	}

	close(release)
	wg.Wait()
	s := a.Stats().Ops
	const total = workers * iters
	if s.Mallocs != total || s.Frees != total {
		t.Errorf("after Unregister: %d mallocs, %d frees, want %d each", s.Mallocs, s.Frees, total)
	}
	if got := s.MagazineHits + s.FromActive + s.FromPartial + s.FromNewSB; got != s.Mallocs {
		t.Errorf("malloc sources sum to %d, want Mallocs=%d", got, s.Mallocs)
	}
	if (s.MagazineHits != 0) != (a.cfg.MagazineSize != 0) {
		t.Errorf("MagazineHits = %d with MagazineSize %d", s.MagazineHits, a.cfg.MagazineSize)
	}
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryRetrySitesUnderContention hammers two threads on one
// processor heap so Active-word CAS failures are likely, then checks
// that retries were observed and attributed to known hot sites.
func TestTelemetryRetrySitesUnderContention(t *testing.T) {
	cfg := testConfig()
	cfg.Processors = 1 // all threads share every processor heap
	rec := NewRecorder(telemetry.Config{})
	cfg.Telemetry = rec
	a := New(cfg)

	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := a.Thread()
			for i := 0; i < 20000; i++ {
				p, err := th.Malloc(16)
				if err != nil {
					t.Error(err)
					return
				}
				th.Free(p)
			}
		}()
	}
	wg.Wait()

	snap := rec.Snapshot()
	if snap.TotalRetries == 0 {
		t.Skip("no CAS retries observed (machine too serial); nothing to attribute")
	}
	var sum uint64
	for _, v := range snap.Retries {
		sum += v
	}
	if sum != snap.TotalRetries {
		t.Errorf("retry site sum %d != TotalRetries %d", sum, snap.TotalRetries)
	}
	if snap.RetriesPerOp() <= 0 {
		t.Errorf("RetriesPerOp = %v, want > 0", snap.RetriesPerOp())
	}
}
