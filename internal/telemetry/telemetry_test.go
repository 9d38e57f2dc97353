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
			sh := r.NewShard(uint64(w))
			for i := 0; i < perW; i++ {
				sh.BeginOp()
				if i%3 == 0 {
					sh.Retry(SiteActiveReserve)
				}
				if i%7 == 0 {
					sh.Retry(SiteFreeFast)
				}
				sh.EndMalloc(i%5-1, time.Duration(i%2000), uint64(i)) // class -1..3
				sh.BeginOp()
				sh.EndFree(i%5-1, time.Duration(i%100), uint64(i))
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

func TestRingWrapAndOrder(t *testing.T) {
	var r Ring
	r.init(64)
	if r.Cap() != 64 {
		t.Fatalf("Cap = %d", r.Cap())
	}
	for i := 1; i <= 200; i++ {
		r.Record(Event{Kind: EvMalloc, Class: i % 7, Thread: 3, Retries: uint64(i), Ptr: uint64(i), Nanos: uint64(i)})
	}
	evs := r.Events(0)
	if len(evs) != 64 {
		t.Fatalf("Events returned %d, want 64", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(200 - 64 + 1 + i)
		if e.Seq != wantSeq {
			t.Fatalf("event %d: seq %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Ptr != wantSeq || e.Retries != wantSeq || e.Thread != 3 {
			t.Errorf("event %d: fields %+v do not match seq %d", i, e, wantSeq)
		}
	}
	// Limited read.
	last := r.Events(5)
	if len(last) != 5 || last[4].Seq != 200 {
		t.Errorf("Events(5) = %d events ending at %d", len(last), last[len(last)-1].Seq)
	}
}

func TestRingConcurrent(t *testing.T) {
	var r Ring
	r.init(128)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // reader racing writers: events must be well-formed
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, e := range r.Events(0) {
					if e.Thread >= 4 || e.Kind >= numEventKinds {
						t.Errorf("torn event leaked: %+v", e)
						return
					}
				}
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < 4; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < 20000; i++ {
				r.Record(Event{Kind: EventKind(i % int(numEventKinds)), Class: -1, Hook: -1, Thread: uint64(w), Ptr: uint64(i)})
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if got := r.Recorded(); got != 80000 {
		t.Errorf("Recorded = %d, want 80000", got)
	}
}

func TestSnapshotSub(t *testing.T) {
	r := New(Config{Classes: 2})
	sh := r.NewShard(0)
	sh.BeginOp()
	sh.Retry(SiteActivePop)
	sh.EndMalloc(0, 100, 1)
	base := r.Snapshot()
	for i := 0; i < 9; i++ {
		sh.BeginOp()
		sh.Retry(SiteActivePop)
		sh.Retry(SiteActivePop)
		sh.EndMalloc(1, 5000, 2)
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
	sh := r.NewShard(7)
	sh.BeginOp()
	sh.Retry(SitePartialPop)
	sh.EndMalloc(2, 300, 42)
	sh.Note(EvNewSB, 2, 4096)
	sh.NoteHook(5)
	s := r.Snapshot()

	data, err := s.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Malloc.Count != 1 || back.TotalRetries != 1 {
		t.Errorf("round-tripped snapshot lost data: %+v", back)
	}

	txt := s.Text(10)
	for _, want := range []string{"partial-pop", "malloc", "flight recorder", "new-sb", "hook=5"} {
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
	for k := EventKind(0); k < numEventKinds; k++ {
		if k.String() == "invalid-event" {
			t.Errorf("event kind %d unnamed", k)
		}
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

// TestRingSampling: the flight recorder takes every ringSample-th
// operation of a shard, every operation that retried a CAS, and every
// structural event.
func TestRingSampling(t *testing.T) {
	r := New(Config{Classes: 1})
	sh := r.NewShard(0)
	for i := 0; i < 2*ringSample; i++ {
		sh.BeginOp()
		sh.EndMalloc(0, 100, uint64(i))
	}
	if got := r.Ring().Recorded(); got != 2 {
		t.Fatalf("%d quiet ops recorded %d events, want 2", 2*ringSample, got)
	}
	sh.BeginOp()
	sh.Retry(SiteFreeFast)
	sh.EndFree(0, 100, 1)
	sh.Note(EvNewSB, 0, 4096)
	evs := r.Ring().Events(0)
	if len(evs) != 4 || evs[2].Kind != EvFree || evs[2].Retries != 1 || evs[3].Kind != EvNewSB {
		t.Errorf("a retried op and a structural event must both be recorded: %+v", evs)
	}
	if evs[1].Ptr != 2*ringSample-1 {
		t.Errorf("second sampled malloc has ptr %d, want %d", evs[1].Ptr, 2*ringSample-1)
	}
}
