package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of log2 latency buckets. Bucket i holds
// durations whose nanosecond count has bit length i — i.e. bucket 0 is
// exactly 0 ns and bucket i (i >= 1) covers [2^(i-1), 2^i) ns. Bucket
// NumBuckets-1 absorbs everything longer (~9 minutes and up).
const NumBuckets = 40

// Histogram is a lock-free log2-bucketed latency histogram. Recording
// is one atomic increment; merging is a bucketwise load.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
}

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	ns := uint64(d.Nanoseconds())
	b := bits.Len64(ns)
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	h.buckets[bucketFor(d)].Add(1)
}

// Load atomically reads the bucket counts.
func (h *Histogram) Load() HistBuckets {
	var out HistBuckets
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// HistBuckets is a plain (snapshot) bucket vector; index semantics
// match Histogram.
type HistBuckets [NumBuckets]uint64

// Observe adds one observation directly to the snapshot vector (same
// bucket mapping as Histogram.Record). For single-goroutine
// accumulation, e.g. the census's live-age buckets.
func (b *HistBuckets) Observe(d time.Duration) {
	b[bucketFor(d)]++
}

// Add accumulates o into b.
func (b *HistBuckets) Add(o HistBuckets) {
	for i := range b {
		b[i] += o[i]
	}
}

// Sub subtracts o from b (clamping at zero so a racy baseline cannot
// produce wrapped counts).
func (b *HistBuckets) Sub(o HistBuckets) {
	for i := range b {
		if b[i] >= o[i] {
			b[i] -= o[i]
		} else {
			b[i] = 0
		}
	}
}

// Count returns the total number of observations.
func (b HistBuckets) Count() uint64 {
	var n uint64
	for _, c := range b {
		n += c
	}
	return n
}

// bucketMid returns a representative nanosecond value for bucket i
// (the midpoint of its range).
func bucketMid(i int) uint64 {
	switch i {
	case 0:
		return 0
	case 1:
		return 1
	default:
		return 3 << (i - 2) // (2^(i-1) + 2^i) / 2
	}
}

// Quantile returns an estimate of the q-quantile (0 < q <= 1) in
// nanoseconds: the representative value of the bucket containing the
// ceil(q*count)-th observation. Returns 0 on an empty histogram.
func (b HistBuckets) Quantile(q float64) uint64 {
	total := b.Count()
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum uint64
	for i, c := range b {
		cum += c
		if cum >= target {
			return bucketMid(i)
		}
	}
	return bucketMid(NumBuckets - 1)
}

// Max returns the representative value of the highest non-empty
// bucket (an upper-bucket estimate of the maximum observation).
func (b HistBuckets) Max() uint64 {
	for i := NumBuckets - 1; i >= 0; i-- {
		if b[i] != 0 {
			return bucketMid(i)
		}
	}
	return 0
}
