package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/telemetry"
)

// TestTelemetryIntegration runs a real malloc/free workload with the
// telemetry layer attached and checks that the snapshot is internally
// consistent: operation counts match the work done, one operation in
// telemetry.Interval per thread is timed, and retry sites carry only
// known names.
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
	const total, timed = workers * iters, workers * (iters / telemetry.Interval)
	if snap.Mallocs != total || snap.Frees != total {
		t.Errorf("snapshot counts %d mallocs, %d frees, want %d each", snap.Mallocs, snap.Frees, total)
	}
	if snap.Malloc.Count != timed || snap.Free.Count != timed {
		t.Errorf("snapshot timed %d mallocs, %d frees, want %d each", snap.Malloc.Count, snap.Free.Count, timed)
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
	// Per-class rows must sum to the aggregates.
	var perClassMallocs, perClassTimed uint64
	for _, row := range snap.PerClass {
		if row.Op == "malloc" {
			perClassMallocs += row.Ops
			perClassTimed += row.Count
		}
	}
	if perClassMallocs != snap.Mallocs || perClassTimed != snap.Malloc.Count {
		t.Errorf("per-class malloc rows sum to %d counted, %d timed; want %d, %d",
			perClassMallocs, perClassTimed, snap.Mallocs, snap.Malloc.Count)
	}
	if snap.Malloc.P50NS == 0 || snap.Malloc.P99NS < snap.Malloc.P50NS {
		t.Errorf("implausible malloc latency quantiles: p50=%d p99=%d",
			snap.Malloc.P50NS, snap.Malloc.P99NS)
	}
}

// TestStatsLiveSampling is the contract test of Stats over the owners'
// counts, with magazines off and on: Stats may be called from any
// goroutine while workers are mid-operation (race-detector clean) and
// every sampled counter is monotone; a handle parked while still in use
// is counted exactly, with no Unregister; and after Unregister every
// identity still holds exactly.
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
	const iters = 5001

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

	for _, th := range ths {
		got := th.OpStats()
		if got.Frees != iters || got.Mallocs != iters {
			t.Errorf("thread %d in use: Stats has %d mallocs, %d frees, performed %d each", th.id, got.Mallocs, got.Frees, iters)
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

// TestTelemetryRetrySitesUnderContention forces a retry instead of
// hoping for one: thread A's hook, between its anchor load and its CAS in
// MallocFromActive's pop, has thread B free a block into the same
// superblock, so A's CAS fails once. The retry is A's first malloc, an
// untimed one: it must still be counted at its site.
func TestTelemetryRetrySitesUnderContention(t *testing.T) {
	cfg := testConfig()
	cfg.Processors = 1 // A and B share every processor heap
	rec := NewRecorder(telemetry.Config{})
	cfg.Telemetry = rec
	a := New(cfg)
	ta, tb := a.Thread(), a.Thread()
	p, err := tb.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	ta.SetHook(func(hp HookPoint) {
		if hp == HookMallocDuringPop && !fired {
			fired = true
			tb.Free(p)
		}
	})
	q, err := ta.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	ta.SetHook(nil)
	if !fired {
		t.Fatal("A's malloc never reached its anchor pop")
	}

	snap := rec.Snapshot()
	if got := snap.Retries[telemetry.SiteActivePop.String()]; got < 1 {
		t.Errorf("%s retries = %d, want >= 1", telemetry.SiteActivePop, got)
	}
	var sum uint64
	for _, v := range snap.Retries {
		sum += v
	}
	if sum != snap.TotalRetries || sum == 0 {
		t.Errorf("retry site sum %d, TotalRetries %d; want equal and > 0", sum, snap.TotalRetries)
	}
	if snap.Mallocs != 2 || snap.Frees != 1 || snap.Malloc.Count != 0 {
		t.Errorf("%d mallocs (%d timed), %d frees; want 2 untimed mallocs and 1 free", snap.Mallocs, snap.Malloc.Count, snap.Frees)
	}
	if snap.RetriesPerOp() <= 0 {
		t.Errorf("RetriesPerOp = %v, want > 0", snap.RetriesPerOp())
	}
	ta.Free(q)
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryCountsEveryOperation: the recorder times one operation
// in telemetry.Interval, but counts all of them, by path and size
// class, and its counts are the ones Stats reads. With magazines off and
// at 8, with a recorder and on the bare path, the test drives every
// path — active, partial, new superblock, large, magazine hit, refill,
// flush and a remote free — and at quiescence, with no Unregister,
// Stats must count exactly the operations the test performed, and the
// recorder's per-class rows must sum to them and to Stats: a path that
// counted nothing, or counted twice, shows. A recorder that counted
// only what it timed would read 2N/Interval.
func TestTelemetryCountsEveryOperation(t *testing.T) {
	for _, magazine := range []int{0, 8} {
		for _, recorded := range []bool{false, true} {
			t.Run(fmt.Sprintf("magazine=%d/recorder=%v", magazine, recorded), func(t *testing.T) {
				countsEveryOperation(t, magazine, recorded)
			})
		}
	}
}

func countsEveryOperation(t *testing.T, magazine int, recorded bool) {
	cfg := testConfig()
	cfg.MagazineSize = magazine
	var rec *telemetry.Recorder
	if recorded {
		rec = NewRecorder(telemetry.Config{})
		cfg.Telemetry = rec
	}
	a := New(cfg)
	th, other := a.Thread(), a.Thread()
	sizes := []uint64{8, 100, 1000, 40000} // the last a large block
	const n = 1000                         // per size: not a multiple of Interval
	var want [2][2]uint64                  // [malloc, free][small, large] performed
	perClass := map[string]uint64{}        // "op class" -> operations performed
	freesBy := map[*Thread]uint64{}
	var ptrs []mem.Ptr
	malloc := func(size uint64) {
		p, err := th.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
		cls := -1
		if c, ok := sizeclassFor(size); ok {
			cls = c
		}
		want[0][b2i(cls < 0)]++
		perClass[fmt.Sprint("malloc ", cls)]++
	}
	free := func(by *Thread, p mem.Ptr) {
		cls := -1
		if prefix := a.heap.Load(p - 1); !prefixIsLarge(prefix) {
			cls = a.desc(prefixDesc(prefix)).ClassIndex()
		}
		by.Free(p)
		want[1][b2i(cls < 0)]++
		perClass[fmt.Sprint("free ", cls)]++
		freesBy[by]++
	}
	for _, size := range sizes {
		for i := 0; i < n; i++ {
			malloc(size)
		}
	}
	// Every other block back, half of them by another thread: full
	// superblocks turn partial, and the next mallocs find them.
	var kept []mem.Ptr
	for i, p := range ptrs {
		switch i % 4 {
		case 0:
			free(th, p)
		case 2:
			free(other, p)
		default:
			kept = append(kept, p)
		}
	}
	ptrs = kept
	for _, size := range sizes[:3] {
		for i := 0; i < n; i++ {
			malloc(size)
		}
	}
	for i, p := range ptrs {
		if i%2 == 0 {
			free(th, p)
		} else {
			free(other, p)
		}
	}

	ops := a.Stats().Ops
	paths := map[string]uint64{"active": ops.FromActive, "partial": ops.FromPartial,
		"new superblock": ops.FromNewSB, "large": ops.LargeMallocs}
	if magazine != 0 {
		paths["magazine hit"], paths["refill"], paths["flush"] = ops.MagazineHits, ops.MagazineMisses, ops.MagazineFlushes
	}
	for path, got := range paths {
		if got == 0 {
			t.Errorf("no operation took the %s path: %+v", path, ops)
		}
	}
	stats := [2][2]uint64{{ops.Mallocs, ops.LargeMallocs}, {ops.Frees, ops.LargeFrees}}
	if stats != want || want[0] != want[1] {
		t.Errorf("Stats counts %v (malloc, free × small, large), performed %v", stats, want)
	}
	if !recorded {
		return
	}
	snap := rec.Snapshot()
	var rows [2][2]uint64
	for _, row := range snap.PerClass {
		if got, w := row.Ops, perClass[fmt.Sprint(row.Op, " ", row.Class)]; got != w {
			t.Errorf("%s class %d counted %d, performed %d", row.Op, row.Class, got, w)
		}
		rows[b2i(row.Op == "free")][b2i(row.Class < 0)] += row.Ops
	}
	if rows != stats {
		t.Errorf("per-class rows sum to %v, Stats reads %v", rows, stats)
	}
	mallocs := want[0][0] + want[0][1]
	if snap.Mallocs != mallocs || snap.Frees != mallocs {
		t.Errorf("snapshot counts %d mallocs, %d frees; performed %d each", snap.Mallocs, snap.Frees, mallocs)
	}
	// Every Interval-th malloc and free of a thread is timed, and no
	// other: th does every malloc.
	if timed := mallocs / telemetry.Interval; snap.Malloc.Count != timed {
		t.Errorf("%d mallocs timed, want %d", snap.Malloc.Count, timed)
	}
	if timed := freesBy[th]/telemetry.Interval + freesBy[other]/telemetry.Interval; snap.Free.Count != timed {
		t.Errorf("%d frees timed, want %d", snap.Free.Count, timed)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestTimedQuantilesMatchEveryOperation: on a Larson-shaped and a
// kvcache-shaped one-thread stream, the quantiles of the recorder's
// timed operations (one in telemetry.Interval) land within one log2
// bucket of those of every operation, which the test times itself with
// the same clock. The operations the recorder times are left out of the
// test's histograms: the thread's countdown says which they are, and
// the test's window around them holds the recorder's own two clock
// reads and its recording, 1.6 % of the operations that would otherwise
// decide the test's p99.
func TestTimedQuantilesMatchEveryOperation(t *testing.T) {
	type step struct {
		size  uint64 // 0: free instead
		index int    // slot of the live set
	}
	larson := func(rng *rand.Rand, n int) []step { // random sizes 16..80 B, random slots
		var s []step
		for i := 0; i < n; i++ {
			k := rng.Intn(1024)
			s = append(s, step{0, k}, step{uint64(16 + rng.Intn(65)), k})
		}
		return s
	}
	kvcache := func(rng *rand.Rand, n int) []step { // a serving mix, evicted in FIFO order
		var s []step
		for i := 0; i < n; i++ {
			size := uint64(16 + rng.Intn(112))
			switch r := rng.Intn(100); {
			case r >= 95:
				size = uint64(4096 + rng.Intn(4096))
			case r >= 70:
				size = uint64(256 + rng.Intn(1792))
			}
			k := i % 4096
			s = append(s, step{0, k}, step{size, k})
		}
		return s
	}
	for _, c := range []struct {
		name     string
		magazine int
		stream   func(*rand.Rand, int) []step
		slots    int
	}{{"larson", 0, larson, 1024}, {"kvcache", 64, kvcache, 4096}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.MagazineSize = c.magazine
			rec := NewRecorder(telemetry.Config{})
			cfg.Telemetry = rec
			th := New(cfg).Thread()
			live := make([]mem.Ptr, c.slots)
			var mallocs, frees telemetry.HistBuckets
			for _, st := range c.stream(rand.New(rand.NewSource(1)), 200_000) {
				if st.size == 0 {
					timed := th.freeTick == 1
					start := telemetry.Now()
					th.Free(live[st.index])
					if d := telemetry.Now() - start; !timed {
						frees.Observe(time.Duration(d))
					}
					continue
				}
				timed := th.mallocTick == 1
				start := telemetry.Now()
				p, err := th.Malloc(st.size)
				if d := telemetry.Now() - start; !timed {
					mallocs.Observe(time.Duration(d))
				}
				if err != nil {
					t.Fatal(err)
				}
				live[st.index] = p
			}
			snap := rec.Snapshot()
			for _, q := range []struct {
				name      string
				all, some telemetry.HistSummary
			}{
				{"malloc", summarize(mallocs), snap.Malloc},
				{"free", summarize(frees), snap.Free},
			} {
				for _, v := range [][3]uint64{{50, q.all.P50NS, q.some.P50NS}, {99, q.all.P99NS, q.some.P99NS}} {
					if d := bits.Len64(v[1]) - bits.Len64(v[2]); d < -1 || d > 1 {
						t.Errorf("%s p%d: every op %v, timed ops %v: %d buckets apart", q.name, v[0],
							time.Duration(v[1]), time.Duration(v[2]), d)
					}
				}
				t.Logf("%s: every op p50 %v p99 %v; %d timed p50 %v p99 %v", q.name,
					time.Duration(q.all.P50NS), time.Duration(q.all.P99NS), q.some.Count,
					time.Duration(q.some.P50NS), time.Duration(q.some.P99NS))
			}
			for _, p := range live {
				th.Free(p)
			}
		})
	}
}

// summarize is the quantile summary a Snapshot gives a histogram.
func summarize(b telemetry.HistBuckets) telemetry.HistSummary {
	return telemetry.HistSummary{Count: b.Count(), P50NS: b.Quantile(0.5), P99NS: b.Quantile(0.99)}
}
