package telemetry

import (
	"sync"
	"testing"
	"time"
)

// snapAt builds a snapshot whose counters all encode n, so a reader can
// detect a torn or mixed-up point by comparing fields against each
// other.
func snapAt(n uint64) Snapshot {
	return Snapshot{
		TakenUnixNano:  int64(n),
		TotalRetries:   n,
		EventsRecorded: n,
		Retries:        map[string]uint64{"site": n},
		Malloc:         HistSummary{Count: n},
	}
}

func TestSeriesWraparound(t *testing.T) {
	s := NewSeries(4)
	if s.Cap() != 4 {
		t.Fatalf("Cap = %d", s.Cap())
	}
	for i := 1; i <= 10; i++ {
		pt := s.Add(snapAt(uint64(i)*10), nil)
		if pt.Seq != uint64(i) {
			t.Fatalf("Add #%d: Seq = %d", i, pt.Seq)
		}
		// Each snapshot is 10 above the previous, so every delta after
		// the first must be exactly 10.
		want := uint64(10)
		if i == 1 {
			want = 10 // first delta is the snapshot itself
		}
		if pt.Delta.TotalRetries != want {
			t.Fatalf("Add #%d: delta retries = %d, want %d", i, pt.Delta.TotalRetries, want)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d after wraparound", s.Len())
	}
	pts := s.Points()
	if len(pts) != 4 {
		t.Fatalf("Points len = %d", len(pts))
	}
	for i, pt := range pts {
		if want := uint64(7 + i); pt.Seq != want {
			t.Errorf("Points[%d].Seq = %d, want %d", i, pt.Seq, want)
		}
	}
	if _, ok := s.Get(6); ok {
		t.Error("Get(6) returned an evicted point")
	}
	if pt, ok := s.Get(7); !ok || pt.Seq != 7 || pt.Snapshot.TotalRetries != 70 {
		t.Errorf("Get(7) = %+v, %v", pt, ok)
	}
	if pt, ok := s.Last(); !ok || pt.Seq != 10 {
		t.Errorf("Last = seq %d, %v", pt.Seq, ok)
	}
	if _, ok := s.Get(0); ok {
		t.Error("Get(0) succeeded")
	}
	if _, ok := s.Get(11); ok {
		t.Error("Get(11) succeeded for a future seq")
	}
}

// TestSeriesConcurrentChurn runs one sampler-style writer against
// several readers paging through the ring while it wraps repeatedly
// (run with -race). A reader that obtained a point holds it across
// further wraparounds and re-checks its self-consistency afterwards:
// points are values, so eviction must never mutate a copy a reader
// already holds.
func TestSeriesConcurrentChurn(t *testing.T) {
	s := NewSeries(8)
	const writes = 5000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []SeriesPoint
			for {
				select {
				case <-stop:
					// The ring has wrapped hundreds of times since these
					// copies were taken; they must be untouched.
					for _, pt := range held {
						checkPoint(t, pt)
					}
					return
				default:
				}
				for _, pt := range s.Points() {
					checkPoint(t, pt)
				}
				if pt, ok := s.Last(); ok {
					checkPoint(t, pt)
					if got, ok := s.Get(pt.Seq); ok && got.Seq != pt.Seq {
						t.Errorf("Get(%d) returned seq %d", pt.Seq, got.Seq)
					}
					if len(held) < 4 {
						held = append(held, pt)
					}
				}
			}
		}()
	}
	for i := 1; i <= writes; i++ {
		s.Add(snapAt(uint64(i)), nil)
	}
	close(stop)
	wg.Wait()
	if pt, ok := s.Last(); !ok || pt.Seq != writes {
		t.Fatalf("final Last seq = %d, %v", pt.Seq, ok)
	}
}

// checkPoint verifies the cross-field encoding of snapAt: a torn point
// would mix counters from different writes.
func checkPoint(t *testing.T, pt SeriesPoint) {
	t.Helper()
	n := pt.Snapshot.TotalRetries
	if pt.Snapshot.EventsRecorded != n || pt.Snapshot.Retries["site"] != n ||
		pt.Snapshot.Malloc.Count != n || pt.TakenUnixNano != int64(n) {
		t.Errorf("torn point seq %d: %+v", pt.Seq, pt.Snapshot)
	}
}

// TestSnapshotSubConcurrentRecorder exercises Snapshot/Sub while thread
// shards are being hammered (run with -race): interval deltas taken
// concurrently with the writers must stay non-negative and the Retries
// map of each snapshot must be private — mutating one snapshot's view
// must not corrupt a baseline held elsewhere.
func TestSnapshotSubConcurrentRecorder(t *testing.T) {
	rec := New(Config{Classes: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			sh := rec.NewShard(id)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sh.Retry(SiteActivePop)
				sh.EndMalloc(i%4, time.Nanosecond, uint64(i))
			}
		}(uint64(w))
	}
	base := rec.Snapshot()
	for i := 0; i < 200; i++ {
		snap := rec.Snapshot()
		d := snap.Sub(base)
		// Counters only grow, so every field of the delta is >= 0 in
		// uint space; a race or aliased map would show up as a huge
		// wrapped value or as the detector firing.
		if d.TotalRetries > 1<<62 || d.Malloc.Count > 1<<62 {
			t.Fatalf("negative interval delta: %+v", d)
		}
		// The delta aliasing nothing: mutating it must not disturb the
		// snapshots it came from.
		d.Retries["poison"] = 1
		if _, ok := snap.Retries["poison"]; ok {
			t.Fatal("Sub result aliases the snapshot's Retries map")
		}
		base = snap
	}
	close(stop)
	wg.Wait()
}
