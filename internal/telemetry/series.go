package telemetry

import "sync"

// SeriesPoint is one periodic sample in a Series: a cumulative
// Snapshot, its delta against the previous point (via Snapshot.Sub),
// and an optional heap census.
type SeriesPoint struct {
	// Seq numbers points monotonically from 1 over the Series'
	// lifetime, so a client can address a baseline (?base=seq) even
	// after the ring has wrapped.
	Seq uint64 `json:"seq"`
	// TakenUnixNano is the snapshot's timestamp.
	TakenUnixNano int64 `json:"takenUnixNano"`
	// Snapshot is the cumulative telemetry snapshot.
	Snapshot Snapshot `json:"snapshot"`
	// Delta is Snapshot minus the previous point's Snapshot; for the
	// first point it equals Snapshot.
	Delta Snapshot `json:"delta"`
	// Census is the heap census taken alongside the snapshot, if any.
	// Declared as any so the telemetry layer stays independent of the
	// census package (which imports telemetry).
	Census any `json:"census,omitempty"`
}

// Series is a fixed-capacity ring of periodic census+snapshot samples
// with per-interval deltas. One goroutine (the monitor's sampler loop)
// appends; any number of readers page through concurrently. A mutex is
// fine here: Add runs a few times per second, never on an allocation
// path.
type Series struct {
	mu     sync.Mutex
	points []SeriesPoint
	next   int // ring write index
	count  int // number of valid points, <= len(points)
	seq    uint64
}

// NewSeries creates a Series holding up to capacity points; capacity
// must be at least 1.
func NewSeries(capacity int) *Series {
	return &Series{points: make([]SeriesPoint, capacity)}
}

// Add appends a sample, computing its delta against the previous point
// (the first point's delta is the snapshot itself — Sub against a zero
// Snapshot is the identity). Returns the stored point.
func (s *Series) Add(snap Snapshot, census any) SeriesPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	pt := SeriesPoint{
		TakenUnixNano: snap.TakenUnixNano,
		Snapshot:      snap,
		Census:        census,
	}
	if s.count > 0 {
		prev := s.points[(s.next+len(s.points)-1)%len(s.points)]
		pt.Delta = snap.Sub(prev.Snapshot)
	} else {
		pt.Delta = snap.Sub(Snapshot{})
	}
	s.seq++
	pt.Seq = s.seq
	s.points[s.next] = pt
	s.next = (s.next + 1) % len(s.points)
	if s.count < len(s.points) {
		s.count++
	}
	return pt
}

// Points returns the retained points, oldest first.
func (s *Series) Points() []SeriesPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SeriesPoint, 0, s.count)
	start := (s.next + len(s.points) - s.count) % len(s.points)
	for i := 0; i < s.count; i++ {
		out = append(out, s.points[(start+i)%len(s.points)])
	}
	return out
}

// Last returns the most recent point, if any.
func (s *Series) Last() (SeriesPoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 {
		return SeriesPoint{}, false
	}
	return s.points[(s.next+len(s.points)-1)%len(s.points)], true
}

// Get returns the point with the given sequence number, if it is still
// retained.
func (s *Series) Get(seq uint64) (SeriesPoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count == 0 || seq == 0 || seq > s.seq {
		return SeriesPoint{}, false
	}
	oldest := s.seq - uint64(s.count) + 1
	if seq < oldest {
		return SeriesPoint{}, false
	}
	start := (s.next + len(s.points) - s.count) % len(s.points)
	return s.points[(start+int(seq-oldest))%len(s.points)], true
}

// Len returns the number of retained points; Cap the ring capacity.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

func (s *Series) Cap() int { return len(s.points) }
