package main

import "math/bits"

// hist is a log-linear histogram of nanosecond durations: exact below
// 64 ns, then 32 buckets per power of two (3 % wide), so a quantile is
// off by at most a bucket and interpolation inside the bucket keeps the
// reported value continuous.
type hist struct {
	n      uint64
	counts [histBuckets]uint64
}

const (
	histSub     = 32 // buckets per octave
	histLinear  = 2 * histSub
	histOctaves = 34 // covers up to 2^40 ns
	histBuckets = histLinear + histOctaves*histSub
)

func histIndex(v int64) int {
	if v < histLinear {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // v in [2^e, 2^(e+1)), e >= 6
	i := histLinear + (e-6)*histSub + int(uint64(v)>>(e-5)) - histSub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histBounds returns bucket i's lower bound and width.
func histBounds(i int) (lo, width float64) {
	if i < histLinear {
		return float64(i), 1
	}
	e := (i-histLinear)/histSub + 6
	sub := (i-histLinear)%histSub + histSub
	return float64(uint64(sub) << (e - 5)), float64(uint64(1) << (e - 5))
}

func (h *hist) add(d int64) {
	h.counts[histIndex(d)]++
	h.n++
}

func (h *hist) reset() { *h = hist{} }

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile returns the q-quantile, interpolated inside its bucket; 0
// when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			lo, width := histBounds(i)
			return lo + width*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}
