package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestSamplerRecordAndLive(t *testing.T) {
	s := newSampler(1, 64)
	s.record(0x1000, 100, 3, 0xabc, 0xdef)
	s.record(0x2000, 200, 5, 0x111, 0)

	live := s.Live()
	if len(live) != 2 {
		t.Fatalf("Live() = %d samples, want 2", len(live))
	}
	byPtr := map[uint64]Sample{}
	for _, sm := range live {
		byPtr[sm.Ptr] = sm
		if sm.AgeNS < 0 {
			t.Errorf("negative age %d", sm.AgeNS)
		}
	}
	sm, ok := byPtr[0x1000]
	if !ok || sm.ReqBytes != 100 || sm.Class != 3 || sm.PC != 0xabc || sm.PC2 != 0xdef {
		t.Errorf("sample 0x1000 = %+v", sm)
	}

	st := s.Stats()
	if st.Sampled != 2 || st.Rate != 1 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestSamplerNoteFree(t *testing.T) {
	s := newSampler(1, 64)
	s.record(0x1000, 64, 2, 0, 0)
	s.noteFree(0x1000)
	if live := s.Live(); len(live) != 0 {
		t.Fatalf("freed sample still live: %+v", live)
	}
	st := s.Stats()
	if st.MatchedFrees != 1 {
		t.Errorf("MatchedFrees = %d, want 1", st.MatchedFrees)
	}
	if st.Lifetimes.Count != 1 {
		t.Errorf("lifetime histogram count = %d, want 1", st.Lifetimes.Count)
	}
	// A free of an untracked pointer is a no-op.
	s.noteFree(0xdead)
	if st := s.Stats(); st.MatchedFrees != 1 {
		t.Errorf("unmatched free counted: %d", st.MatchedFrees)
	}
}

func TestSamplerEviction(t *testing.T) {
	s := newSampler(1, 2) // 2 slots: collisions guaranteed
	for i := uint64(1); i <= 100; i++ {
		s.record(i<<4, 8, 0, 0, 0)
	}
	st := s.Stats()
	if st.Sampled != 100 {
		t.Errorf("Sampled = %d, want 100", st.Sampled)
	}
	if st.Evicted == 0 {
		t.Error("no evictions with 100 records into 2 slots")
	}
	if got := len(s.Live()); got > 2 {
		t.Errorf("Live() = %d samples from 2 slots", got)
	}
}

func TestShardSampleRate(t *testing.T) {
	r := New(Config{SampleRate: 4})
	if r.Sampler() == nil {
		t.Fatal("no sampler with SampleRate set")
	}
	sh := r.NewShard(0)
	// The owner's side of the countdown, as core.Thread.Malloc runs it.
	countdown, timed := sh.Countdown(OpMalloc), 0
	for i := uint64(0); i < 2*Interval; i++ {
		if countdown--; countdown != 0 {
			continue
		}
		var isTimed, sampled bool
		isTimed, sampled, countdown = sh.Due(OpMalloc)
		if isTimed {
			timed++
		}
		if sampled {
			sh.Sample(0x1000+i*8, 16, 1)
		}
	}
	if got := r.Sampler().Stats().Sampled; got != 2*Interval/4 || timed != 2 {
		t.Errorf("Sampled = %d, timed %d after %d mallocs at rate 4, want %d and 2", got, timed, 2*Interval, 2*Interval/4)
	}
	// With the sampler on, every free is due and one in Interval timed.
	for i := 1; i <= Interval; i++ {
		if c := sh.Countdown(OpFree); c != 1 {
			t.Fatalf("free countdown %d with the sampler on, want 1", c)
		}
		if isTimed, _, _ := sh.Due(OpFree); isTimed != (i == Interval) {
			t.Fatalf("free %d timed = %v", i, isTimed)
		}
	}
}

func TestSamplerDisabled(t *testing.T) {
	r := New(Config{})
	if r.Sampler() != nil {
		t.Fatal("sampler attached with SampleRate 0")
	}
	sh := r.NewShard(0)
	// Without a sampler the countdowns run to the timed operations
	// alone, no malloc is sampled, and SampleFree is a no-op.
	for _, op := range []Op{OpMalloc, OpFree} {
		if c := sh.Countdown(op); c != Interval {
			t.Errorf("op %d: countdown %d, want %d", op, c, Interval)
		}
		if timed, sampled, next := sh.Due(op); !timed || sampled || next != Interval {
			t.Errorf("op %d: Due = %v, %v, %d; want timed, unsampled, %d", op, timed, sampled, next, Interval)
		}
	}
	sh.SampleFree(0x1000)
}

// TestSamplerConcurrent drives record/noteFree/Live from many
// goroutines; the per-slot seqlock must keep -race clean and Live must
// never return a torn sample (ptr zero or mismatched).
func TestSamplerConcurrent(t *testing.T) {
	s := newSampler(1, 128)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := uint64(1); i < 4000; i++ {
				ptr := (uint64(g)<<32 | i) << 4
				s.record(ptr, i%512, int(i%40), i, 0)
				if i%3 == 0 {
					s.noteFree(ptr)
				}
			}
		}(g)
	}
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sm := range s.Live() {
					if sm.Ptr == 0 {
						t.Error("torn sample: zero ptr")
					}
					if sm.AgeNS < 0 {
						t.Error("torn sample: negative age")
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	st := s.Stats()
	if st.Sampled == 0 {
		t.Error("nothing sampled")
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
