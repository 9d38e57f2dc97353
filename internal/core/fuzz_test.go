package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sizeclass"
)

// fuzzSize maps an op byte's low seven bits to a request size, quadratic
// so that it is dense among the small classes and still reaches every
// class by its block count; from fuzzLargeFrom up (a tenth of the range)
// it is past sizeclass.MaxPayloadBytes, so the large path stays fuzzed
// wherever the table draws the boundary.
func fuzzSize(b byte) uint64 {
	const fuzzLargeFrom = 114
	k := uint64(b & 0x7f)
	return k*k*sizeclass.MaxPayloadBytes/(fuzzLargeFrom*fuzzLargeFrom) + 1
}

// TestFuzzSizeSpansTheBoundary keeps the fuzzers on both sides of the
// small/large boundary, whatever the class table says it is.
func TestFuzzSizeSpansTheBoundary(t *testing.T) {
	classes := map[int]bool{}
	large := 0
	for b := 0; b < 128; b++ {
		if cls, ok := sizeclass.IndexFor(fuzzSize(byte(b))); ok {
			classes[cls] = true
		} else {
			large++
		}
	}
	if !classes[sizeclass.NumClasses()-1] || len(classes) < sizeclass.NumClasses()*3/4 || large < 8 {
		t.Errorf("fuzzSize reaches %d of %d classes (top class: %v) and %d large sizes",
			len(classes), sizeclass.NumClasses(), classes[sizeclass.NumClasses()-1], large)
	}
}

// FuzzMallocFreeSequence interprets the fuzz input as a single-thread
// operation sequence — each byte either allocates (size derived from
// the byte) or frees a pseudo-randomly chosen live block — and checks
// payload integrity plus global invariants at the end. Run with
// `go test -fuzz FuzzMallocFreeSequence ./internal/core/`; the seed
// corpus also runs under plain `go test`.
func FuzzMallocFreeSequence(f *testing.F) {
	f.Add([]byte{0x01, 0x80, 0x02, 0x81, 0xff, 0x00})
	f.Add([]byte("allocate and free some blocks please"))
	f.Add([]byte{0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x7f, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		a := New(Config{
			Processors: 2,
			HeapConfig: mem.Config{SegmentWordsLog2: 16, TotalWordsLog2: 26},
		})
		th := a.Thread()
		type held struct {
			p     mem.Ptr
			words uint64
			tag   uint64
		}
		var live []held
		for i, b := range data {
			if b&0x80 != 0 && len(live) > 0 {
				// Free a pseudo-random live block.
				k := int(b&0x7f) % len(live)
				h := live[k]
				for w := uint64(0); w < h.words; w++ {
					if a.heap.Get(h.p.Add(w)) != h.tag+w {
						t.Fatalf("op %d: corruption in %v word %d", i, h.p, w)
					}
				}
				th.Free(h.p)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			// Allocate: size spans all classes plus occasional large.
			size := fuzzSize(b)
			p, err := th.Malloc(size)
			if err != nil {
				t.Fatalf("op %d: malloc(%d): %v", i, size, err)
			}
			words := (size + mem.WordBytes - 1) / mem.WordBytes
			tag := uint64(i) << 16
			for w := uint64(0); w < words; w++ {
				a.heap.Set(p.Add(w), tag+w)
			}
			live = append(live, held{p, words, tag})
		}
		n := int64(0)
		for _, h := range live {
			if !sizeclass.IsLarge(h.words * mem.WordBytes) { // small blocks only in descriptor stats
				n++
			}
		}
		if err := a.CheckInvariants(n); err != nil {
			t.Fatal(err)
		}
		for _, h := range live {
			th.Free(h.p)
		}
		if err := a.CheckInvariants(0); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzMagazine drives a magazine-enabled allocator with a byte-coded
// op sequence — the first byte picks the magazine size, every 0x7f
// byte forces a full flush at an arbitrary point — and proves payload
// integrity plus the magazine accounting invariants (live + cached ==
// allocated) both mid-stream and at quiescence.
func FuzzMagazine(f *testing.F) {
	f.Add([]byte{0x10, 0x01, 0x80, 0x02, 0x81, 0x7f, 0x03, 0x00})
	f.Add([]byte("magazines flush at random points"))
	f.Add([]byte{0xff, 0x7f, 0x7f, 0x01, 0x81, 0x7f, 0x00, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		a := New(Config{
			Processors:   2,
			HeapConfig:   mem.Config{SegmentWordsLog2: 16, TotalWordsLog2: 26},
			MagazineSize: 8 + int(data[0]%64),
		})
		th := a.Thread()
		type held struct {
			p     mem.Ptr
			words uint64
			tag   uint64
		}
		var live []held
		for i, b := range data[1:] {
			if b == 0x7f {
				th.FlushMagazines()
				continue
			}
			if b&0x80 != 0 && len(live) > 0 {
				k := int(b&0x7f) % len(live)
				h := live[k]
				for w := uint64(0); w < h.words; w++ {
					if a.heap.Get(h.p.Add(w)) != h.tag+w {
						t.Fatalf("op %d: corruption in %v word %d", i, h.p, w)
					}
				}
				th.Free(h.p)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			size := fuzzSize(b)
			p, err := th.Malloc(size)
			if err != nil {
				t.Fatalf("op %d: malloc(%d): %v", i, size, err)
			}
			words := (size + mem.WordBytes - 1) / mem.WordBytes
			tag := uint64(i) << 16
			for w := uint64(0); w < words; w++ {
				a.heap.Set(p.Add(w), tag+w)
			}
			live = append(live, held{p, words, tag})
		}
		n := int64(0)
		for _, h := range live {
			if !sizeclass.IsLarge(h.words * mem.WordBytes) { // small blocks only in descriptor stats
				n++
			}
		}
		// Magazines may still be loaded here; the checker accounts them.
		if err := a.CheckInvariants(n); err != nil {
			t.Fatal(err)
		}
		for _, h := range live {
			// Payload must have survived magazine caching and flushes.
			for w := uint64(0); w < h.words; w++ {
				if a.heap.Get(h.p.Add(w)) != h.tag+w {
					t.Fatalf("corruption in %v word %d at teardown", h.p, w)
				}
			}
			th.Free(h.p)
		}
		th.Unregister()
		if err := a.CheckInvariants(0); err != nil {
			t.Fatal(err)
		}
	})
}
