package telemetry

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestBucketFor(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{time.Hour, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketFor(c.d); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast (ns in [64,128)) and 10 slow (ns in [4096,8192)).
	for i := 0; i < 90; i++ {
		h.Record(100)
	}
	for i := 0; i < 10; i++ {
		h.Record(5000)
	}
	b := h.Load()
	if got := b.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	p50 := b.Quantile(0.50)
	if p50 < 64 || p50 >= 128 {
		t.Errorf("p50 = %d, want in [64,128)", p50)
	}
	p99 := b.Quantile(0.99)
	if p99 < 4096 || p99 >= 8192 {
		t.Errorf("p99 = %d, want in [4096,8192)", p99)
	}
	if max := b.Max(); max < 4096 || max >= 8192 {
		t.Errorf("Max = %d, want in [4096,8192)", max)
	}
	var empty HistBuckets
	if empty.Quantile(0.5) != 0 || empty.Max() != 0 {
		t.Error("empty histogram quantiles must be 0")
	}
}

func TestHistBucketsObserve(t *testing.T) {
	var b HistBuckets
	b.Observe(0)
	b.Observe(time.Microsecond)
	b.Observe(time.Microsecond)
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
	var h Histogram
	h.Record(0)
	h.Record(time.Microsecond)
	h.Record(time.Microsecond)
	if h.Load() != b {
		t.Error("Observe and Record disagree on bucket mapping")
	}
}

// TestQuantileRank: the q-quantile is the bucket of the
// ceil(q*count)-th observation, so a rank that falls between two
// observations rounds up to the later one.
func TestQuantileRank(t *testing.T) {
	const us, ms = time.Microsecond, time.Millisecond
	repeat := func(d time.Duration, n int) []time.Duration {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = d
		}
		return ds
	}
	for _, c := range []struct {
		obs  []time.Duration
		q    float64
		want uint64
	}{
		{[]time.Duration{1, us, ms}, 0.50, 768},                  // rank 2 of 3, not 1
		{append(repeat(us, 50), ms), 0.99, 786_432},              // rank 51 of 51, not 50
		{[]time.Duration{1, us}, 0.50, 1},                        // rank 1 of 2 exactly
		{[]time.Duration{1, us}, 1, 768},                         // the last observation
		{[]time.Duration{ms}, 0.01, 786_432},                     // rank 1 of 1
		{append(repeat(100, 90), repeat(5000, 10)...), 0.90, 96}, // rank 90 of 100 exactly
		{append(repeat(100, 90), repeat(5000, 10)...), 0.91, 6144},
	} {
		var b HistBuckets
		for _, d := range c.obs {
			b.Observe(d)
		}
		if got := b.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) of %d observations = %d, want %d", c.q, len(c.obs), got, c.want)
		}
	}
}

// TestConcurrentMergeProperty is the satellite property test: under
// concurrent recording (with live snapshots racing the writers), the
// final merged counts equal the sum of what each shard recorded.
func TestConcurrentMergeProperty(t *testing.T) {
	const (
		workers = 8
		perW    = 5000
	)
	r := New(Config{Classes: 4})
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() { // live sampler racing the writers
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := r.Snapshot()
				if s.Malloc.Count > workers*perW {
					t.Errorf("live snapshot overcounts: %d", s.Malloc.Count)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := r.NewShard()
			for i := 0; i < perW; i++ {
				if i%3 == 0 {
					sh.Retry(SiteActiveReserve)
				}
				if i%7 == 0 {
					sh.Retry(SiteFreeFast)
				}
				sh.EndMalloc(i%5-1, time.Duration(i%2000)) // class -1..3
				sh.EndFree(i%5-1, time.Duration(i%100))
				r.Stripes().Retry(SiteRegionPush, uint64(i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snaps.Wait()

	s := r.Snapshot()
	if got := s.Malloc.Count; got != workers*perW {
		t.Errorf("merged malloc count = %d, want %d", got, workers*perW)
	}
	if got := s.Free.Count; got != workers*perW {
		t.Errorf("merged free count = %d, want %d", got, workers*perW)
	}
	// Per-class rows must sum to the aggregate.
	var mallocRows uint64
	for _, row := range s.PerClass {
		if row.Op == "malloc" {
			mallocRows += row.Count
		}
	}
	if mallocRows != s.Malloc.Count {
		t.Errorf("per-class malloc rows sum to %d, aggregate %d", mallocRows, s.Malloc.Count)
	}
	wantReserve := uint64(workers) * ((perW + 2) / 3)
	if got := s.Retries[SiteActiveReserve.String()]; got != wantReserve {
		t.Errorf("active-reserve retries = %d, want %d", got, wantReserve)
	}
	wantFree := uint64(workers) * ((perW + 6) / 7)
	if got := s.Retries[SiteFreeFast.String()]; got != wantFree {
		t.Errorf("free-fast retries = %d, want %d", got, wantFree)
	}
	if got := s.Retries[SiteRegionPush.String()]; got != workers*perW {
		t.Errorf("region-push (striped) retries = %d, want %d", got, workers*perW)
	}
	if s.Threads != workers {
		t.Errorf("Threads = %d, want %d", s.Threads, workers)
	}
}

func TestSnapshotSub(t *testing.T) {
	r := New(Config{Classes: 2})
	sh := r.NewShard()
	sh.Retry(SiteActivePop)
	sh.EndMalloc(0, 100)
	base := r.Snapshot()
	for i := 0; i < 9; i++ {
		sh.Retry(SiteActivePop)
		sh.Retry(SiteActivePop)
		sh.Counts().Count(PathActive, 1)
		sh.EndMalloc(1, 5000)
	}
	delta := r.Snapshot().Sub(base)
	if delta.Malloc.Count != 9 {
		t.Errorf("delta malloc count = %d, want 9", delta.Malloc.Count)
	}
	if got := delta.Retries[SiteActivePop.String()]; got != 18 {
		t.Errorf("delta retries = %d, want 18", got)
	}
	if p50 := delta.Malloc.P50NS; p50 < 4096 || p50 >= 8192 {
		t.Errorf("delta p50 = %d, want in [4096,8192) (baseline fast op must not leak in)", p50)
	}
	if rpo := delta.RetriesPerOp(); rpo != 2 {
		t.Errorf("delta retries/op = %v, want 2", rpo)
	}
}

func TestSnapshotJSONAndText(t *testing.T) {
	r := New(Config{Classes: 3})
	sh := r.NewShard()
	sh.Retry(SitePartialPop)
	sh.Counts().Count(PathPartial, 2)
	sh.EndMalloc(2, 300)
	s := r.Snapshot()

	data, err := s.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Mallocs != 1 || back.Malloc.Count != 1 || back.TotalRetries != 1 {
		t.Errorf("round-tripped snapshot lost data: %+v", back)
	}

	txt := s.Text()
	for _, want := range []string{"partial-pop", "malloc", "timed=1", "class 2"} {
		if !contains(txt, want) {
			t.Errorf("Text missing %q:\n%s", want, txt)
		}
	}
}

func TestSiteNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for s := Site(0); s < NumSites; s++ {
		n := s.String()
		if n == "" || n == "invalid-site" || seen[n] {
			t.Errorf("site %d has bad or duplicate name %q", s, n)
		}
		seen[n] = true
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestRingSampling: every operation is counted, a timed one is also in
// its histogram, and a retry is counted at its site whether or not its
// operation is timed.
func TestRingSampling(t *testing.T) {
	r := New(Config{Classes: 1})
	sh := r.NewShard()
	for i := 0; i < 2*Interval; i++ {
		sh.Counts().Count(PathActive, 0)
	}
	sh.Counts().Count(PathMagazine, 0)
	sh.EndMalloc(0, 100)
	sh.Retry(SiteFreeFast)
	sh.Counts().Count(PathFree, 0)
	sh.Counts().Count(PathFree, 0)
	s := r.Snapshot()
	if s.Mallocs != 2*Interval+1 || s.Frees != 2 || s.Malloc.Count != 1 || s.Free.Count != 0 {
		t.Errorf("counts %d/%d, timed %d/%d; want %d/2 counted, 1/0 timed",
			s.Mallocs, s.Frees, s.Malloc.Count, s.Free.Count, 2*Interval+1)
	}
	if s.Malloc.MaxNS == 0 || s.Retries[SiteFreeFast.String()] != 1 {
		t.Errorf("timed malloc max %d ns, free-fast retries %d; want a latency and 1",
			s.Malloc.MaxNS, s.Retries[SiteFreeFast.String()])
	}
}
