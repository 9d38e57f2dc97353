package telemetry

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Sampler is the low-rate allocation sampler behind the heap census's
// internal-fragmentation, call-site, and live-age reporting. Every Nth
// small-or-large malloc per thread (Config.SampleRate) deposits a
// sample — pointer, requested size, size class, call-site PCs, birth
// time — into a fixed hash-addressed slot table; a matching free clears
// the slot and records the block's lifetime. Slots that survive are,
// by construction, a uniform 1/N sample of the *allocations* (not of
// the live bytes: long-lived blocks are sampled at the same rate as
// short-lived ones, so old-age mass in the live table is evidence of
// blocks that were allocated and never freed — the leak signal).
//
// The discipline is the telemetry layer's own: recording never locks
// and never blocks another thread. Each slot carries a seqlock-style
// sequence word: a writer claims the slot with one even→odd CAS,
// stores the fields with plain atomic stores, and releases with an
// even store; a writer that loses the claim CAS drops its sample (a
// counted collision) instead of waiting. Readers (the census walker)
// validate the sequence word and pointer around their loads and skip
// torn slots. The free-path probe is one hash and one atomic load in
// the common (unsampled) case.
type Sampler struct {
	every uint64
	slots []sampleSlot
	mask  uint64
	epoch time.Time

	sampled    atomic.Uint64
	evicted    atomic.Uint64
	collisions atomic.Uint64
	matched    atomic.Uint64

	// lifetimes aggregates allocation-to-free latency of sampled
	// blocks whose free was matched in the slot table.
	lifetimes Histogram
}

// sampleSlot holds one live sample. seq is even when the slot is
// stable and odd while a writer owns it; ptr 0 means empty.
type sampleSlot struct {
	seq   atomic.Uint64
	ptr   atomic.Uint64
	req   atomic.Uint64
	class atomic.Int64
	pc    atomic.Uint64
	pc2   atomic.Uint64
	born  atomic.Int64 // ns since Sampler epoch
}

func newSampler(rate, slots int) *Sampler {
	n := 1
	for n < slots {
		n <<= 1
	}
	return &Sampler{
		every: uint64(rate),
		slots: make([]sampleSlot, n),
		mask:  uint64(n - 1),
		epoch: time.Now(),
	}
}

// Rate returns the sampling period: one sample per Rate mallocs per
// thread.
func (s *Sampler) Rate() int { return int(s.every) }

// Slots returns the live-sample table capacity.
func (s *Sampler) Slots() int { return len(s.slots) }

// now is the monotonic clock samples are stamped with.
func (s *Sampler) now() int64 { return int64(time.Since(s.epoch)) }

// record deposits a sample for ptr. Called off the per-thread sampling
// countdown, so its cost (one CAS, a handful of atomic stores) is paid
// once per SampleRate mallocs.
func (s *Sampler) record(ptr, req uint64, class int, pc, pc2 uint64) {
	sl := &s.slots[mix(ptr)&s.mask]
	seq := sl.seq.Load()
	if seq&1 != 0 || !sl.seq.CompareAndSwap(seq, seq+1) {
		// Another writer owns the slot; dropping the sample keeps the
		// writer wait-free (the loss is counted, not hidden).
		s.collisions.Add(1)
		return
	}
	if sl.ptr.Load() != 0 {
		s.evicted.Add(1)
	}
	sl.ptr.Store(ptr)
	sl.req.Store(req)
	sl.class.Store(int64(class))
	sl.pc.Store(pc)
	sl.pc2.Store(pc2)
	sl.born.Store(s.now())
	sl.seq.Store(seq + 2)
	s.sampled.Add(1)
}

// noteFree matches a freed pointer against the slot table: if the
// block was sampled, the slot is cleared and the lifetime recorded.
// The common case (not sampled) is one hash and one atomic load.
func (s *Sampler) noteFree(ptr uint64) {
	sl := &s.slots[mix(ptr)&s.mask]
	if sl.ptr.Load() != ptr {
		return
	}
	born := sl.born.Load()
	if !sl.ptr.CompareAndSwap(ptr, 0) {
		return // lost to a concurrent overwrite or duplicate free
	}
	s.matched.Add(1)
	if d := s.now() - born; d >= 0 {
		s.lifetimes.Record(time.Duration(d))
	}
}

// Sample is one live (not yet freed) sampled allocation.
type Sample struct {
	// Ptr is the sampled block's payload pointer (as a raw word
	// index).
	Ptr uint64 `json:"ptr"`
	// ReqBytes is the payload size the caller asked Malloc for —
	// compared against the size class's payload it yields the
	// internal-fragmentation waste.
	ReqBytes uint64 `json:"reqBytes"`
	// Class is the size-class index the block was served from, -1 for
	// large blocks.
	Class int `json:"class"`
	// PC and PC2 are the two innermost call-site return addresses
	// above the allocator's Malloc, captured raw; resolve them with
	// runtime.CallersFrames (internal/census does).
	PC  uint64 `json:"pc"`
	PC2 uint64 `json:"pc2,omitempty"`
	// AgeNS is the sample's age at collection time.
	AgeNS int64 `json:"ageNS"`
}

// Live collects the current live samples. Lock-free and safe to call
// while allocation runs: each slot's sequence word and pointer are
// validated around the field loads, and torn slots are skipped.
func (s *Sampler) Live() []Sample {
	now := s.now()
	out := make([]Sample, 0, 64)
	for i := range s.slots {
		sl := &s.slots[i]
		seq := sl.seq.Load()
		if seq&1 != 0 {
			continue // writer in flight
		}
		ptr := sl.ptr.Load()
		if ptr == 0 {
			continue
		}
		smp := Sample{
			Ptr:      ptr,
			ReqBytes: sl.req.Load(),
			Class:    int(sl.class.Load()),
			PC:       sl.pc.Load(),
			PC2:      sl.pc2.Load(),
			AgeNS:    now - sl.born.Load(),
		}
		if sl.seq.Load() != seq || sl.ptr.Load() != ptr {
			continue // torn: a writer or a matching free raced the loads
		}
		if smp.AgeNS < 0 {
			smp.AgeNS = 0
		}
		out = append(out, smp)
	}
	return out
}

// SamplerStats is a point-in-time digest of sampler counters.
type SamplerStats struct {
	// Rate is the sampling period (one sample per Rate mallocs per
	// thread); Slots the table capacity.
	Rate  int `json:"rate"`
	Slots int `json:"slots"`
	// Sampled counts deposited samples; Evicted those overwritten by a
	// colliding newer sample before their free was seen; Collisions
	// samples dropped because another writer held the slot;
	// MatchedFrees frees that found their sample and recorded a
	// lifetime.
	Sampled      uint64 `json:"sampled"`
	Evicted      uint64 `json:"evicted"`
	Collisions   uint64 `json:"collisions"`
	MatchedFrees uint64 `json:"matchedFrees"`
	// Lifetimes summarizes allocation-to-free latency over matched
	// samples.
	Lifetimes HistSummary `json:"lifetimes"`
}

// Stats returns the sampler's counters.
func (s *Sampler) Stats() SamplerStats {
	return SamplerStats{
		Rate:         int(s.every),
		Slots:        len(s.slots),
		Sampled:      s.sampled.Load(),
		Evicted:      s.evicted.Load(),
		Collisions:   s.collisions.Load(),
		MatchedFrees: s.matched.Load(),
		Lifetimes:    summarize(s.lifetimes.Load()),
	}
}

// SampleMalloc feeds the allocation sampler after a completed malloc.
// With the sampler disabled (Config.SampleRate 0) the cost is one
// plain field load and branch; an enabled sampler adds a counter
// decrement per malloc and pays the capture cost (stack PCs, one CAS)
// only on every SampleRate-th call.
func (s *ThreadShard) SampleMalloc(ptr, reqBytes uint64, class int) {
	if s.smpEvery == 0 {
		return
	}
	s.smpSeq++
	if s.smpSeq < s.smpEvery {
		return
	}
	s.smpSeq = 0
	s.sampleSlow(ptr, reqBytes, class)
}

// sampleSlow captures the call site and deposits the sample. Kept out
// of SampleMalloc so the per-malloc guard stays inlinable.
func (s *ThreadShard) sampleSlow(ptr, reqBytes uint64, class int) {
	// Skip runtime.Callers, sampleSlow, SampleMalloc, and the
	// allocator's Malloc itself: the first recorded PC is Malloc's
	// caller, the second its caller (kept so wrapper facades can be
	// skipped at resolution time). runtime.Callers counts logical
	// frames, so inlining SampleMalloc into Malloc does not shift the
	// attribution.
	var pcs [2]uintptr
	n := runtime.Callers(4, pcs[:])
	var pc, pc2 uint64
	if n > 0 {
		pc = uint64(pcs[0])
	}
	if n > 1 {
		pc2 = uint64(pcs[1])
	}
	s.smp.record(ptr, reqBytes, class, pc, pc2)
}

// SampleFree matches a pointer about to be freed against the sampler's
// live table. One nil check when the sampler is off.
func (s *ThreadShard) SampleFree(ptr uint64) {
	if s.smp == nil {
		return
	}
	s.smp.noteFree(ptr)
}
