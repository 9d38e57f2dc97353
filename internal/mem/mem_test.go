package mem

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func newTestHeap() *Heap {
	return NewHeap(Config{SegmentWordsLog2: 14, TotalWordsLog2: 24})
}

func TestNilPtr(t *testing.T) {
	var p Ptr
	if !p.IsNil() {
		t.Error("zero Ptr must be nil")
	}
	if Ptr(1).IsNil() {
		t.Error("Ptr(1) must not be nil")
	}
}

func TestPtrArithmetic(t *testing.T) {
	p := Ptr(100)
	if p.Add(5) != Ptr(105) {
		t.Error("Add")
	}
	if p.Add(5).Sub(p) != 5 {
		t.Error("Sub")
	}
}

func TestAllocRegionBasic(t *testing.T) {
	h := newTestHeap()
	p, words, err := h.AllocRegion(100)
	if err != nil {
		t.Fatal(err)
	}
	if p.IsNil() {
		t.Fatal("nil region")
	}
	if words != PageWords {
		t.Errorf("words = %d, want one page (%d)", words, PageWords)
	}
	// The whole region must be addressable.
	for i := uint64(0); i < words; i++ {
		h.Store(p.Add(i), i)
	}
	for i := uint64(0); i < words; i++ {
		if h.Load(p.Add(i)) != i {
			t.Fatalf("word %d corrupted", i)
		}
	}
}

func TestRegionWordsRounding(t *testing.T) {
	cases := []struct{ n, want uint64 }{
		{0, PageWords},
		{1, PageWords},
		{PageWords, PageWords},
		{PageWords + 1, 2 * PageWords},
		{64 * PageWords, 64 * PageWords},
		{64*PageWords + 1, 128 * PageWords},
		{100 * PageWords, 128 * PageWords},
	}
	for _, c := range cases {
		if got := RegionWords(c.n); got != c.want {
			t.Errorf("RegionWords(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestRegionWordsProperty(t *testing.T) {
	f := func(raw uint32) bool {
		n := uint64(raw)%(1<<20) + 1
		w := RegionWords(n)
		return w >= n && w%PageWords == 0 && RegionWords(w) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegionReuse(t *testing.T) {
	h := newTestHeap()
	p1, _, err := h.AllocRegion(2048)
	if err != nil {
		t.Fatal(err)
	}
	h.FreeRegion(p1, 2048)
	p2, _, err := h.AllocRegion(2048)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Errorf("freed region not reused: %v then %v", p1, p2)
	}
	s := h.Stats()
	if s.ReusedRegions != 1 {
		t.Errorf("ReusedRegions = %d, want 1", s.ReusedRegions)
	}
}

func TestRegionsDisjoint(t *testing.T) {
	h := newTestHeap()
	type region struct {
		p Ptr
		w uint64
	}
	var regions []region
	sizes := []uint64{1, 500, 512, 1000, 2048, 4096, 513}
	for i := 0; i < 40; i++ {
		n := sizes[i%len(sizes)]
		p, w, err := h.AllocRegion(n)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, region{p, w})
	}
	for i, a := range regions {
		for j, b := range regions {
			if i == j {
				continue
			}
			if uint64(a.p) < uint64(b.p)+b.w && uint64(b.p) < uint64(a.p)+a.w {
				t.Fatalf("regions %d and %d overlap: %v+%d vs %v+%d", i, j, a.p, a.w, b.p, b.w)
			}
		}
	}
}

func TestRegionNeverStraddlesSegment(t *testing.T) {
	h := NewHeap(Config{SegmentWordsLog2: 12, TotalWordsLog2: 20}) // tiny 4096-word segments
	for i := 0; i < 50; i++ {
		p, w, err := h.AllocRegion(3 * PageWords)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(p)>>12 != (uint64(p)+w-1)>>12 {
			t.Fatalf("region %v+%d straddles a segment", p, w)
		}
		// Words() must accept the whole region.
		s := h.Words(p, w)
		if uint64(len(s)) != w {
			t.Fatalf("Words returned %d words, want %d", len(s), w)
		}
	}
	if h.Stats().SkippedWords == 0 {
		t.Error("expected boundary skips with tiny segments")
	}
}

func TestOutOfMemory(t *testing.T) {
	h := NewHeap(Config{SegmentWordsLog2: 12, TotalWordsLog2: 13}) // raised to 2^15 words
	var allocated int
	for {
		_, _, err := h.AllocRegion(PageWords)
		if err != nil {
			break
		}
		allocated++
		if allocated > 1000 {
			t.Fatal("never ran out of a 32768-word heap")
		}
	}
	if allocated == 0 {
		t.Fatal("could not allocate anything")
	}
}

func TestOversizeRegionRejected(t *testing.T) {
	h := newTestHeap()
	if _, _, err := h.AllocRegion(h.SegmentWords() + 1); err == nil {
		t.Error("oversize region allocation succeeded")
	}
}

func TestMapped(t *testing.T) {
	h := newTestHeap()
	if h.Mapped(PageWords) {
		t.Error("the first page past nil mapped before any allocation")
	}
	p, _, err := h.AllocRegion(10)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Mapped(p) {
		t.Error("allocated region not mapped")
	}
	if h.Mapped(Ptr(1 << 60)) {
		t.Error("out-of-range address mapped")
	}
}

func TestAtomicAndPlainAccessors(t *testing.T) {
	h := newTestHeap()
	p, _, _ := h.AllocRegion(8)
	h.Set(p, 7)
	if h.Get(p) != 7 {
		t.Error("Set/Get")
	}
	h.Store(p.Add(1), 9)
	if h.Load(p.Add(1)) != 9 {
		t.Error("Store/Load")
	}
	if !h.CAS(p, 7, 8) || h.Load(p) != 8 {
		t.Error("CAS success path")
	}
	if h.CAS(p, 7, 99) {
		t.Error("CAS with stale expected value succeeded")
	}
}

func TestMaxLiveTracking(t *testing.T) {
	h := newTestHeap()
	p1, w1, _ := h.AllocRegion(PageWords)
	p2, w2, _ := h.AllocRegion(PageWords)
	if got := h.Stats().LiveWords; got != w1+w2 {
		t.Errorf("LiveWords = %d, want %d", got, w1+w2)
	}
	h.FreeRegion(p1, PageWords)
	h.FreeRegion(p2, PageWords)
	s := h.Stats()
	if s.LiveWords != 0 {
		t.Errorf("LiveWords after frees = %d, want 0", s.LiveWords)
	}
	if s.MaxLiveWords != w1+w2 {
		t.Errorf("MaxLiveWords = %d, want %d", s.MaxLiveWords, w1+w2)
	}
	h.ResetMaxLive()
	if h.Stats().MaxLiveWords != 0 {
		t.Error("ResetMaxLive did not reset")
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	h := NewHeap(Config{SegmentWordsLog2: 16, TotalWordsLog2: 26})
	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			var held []Ptr
			for i := 0; i < iters; i++ {
				p, w, err := h.AllocRegion(PageWords)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				// Stamp ownership over the region and verify: detects
				// double-allocation of the same region.
				h.Store(p, id*1000000+uint64(i))
				h.Store(p.Add(w-1), id)
				if h.Load(p) != id*1000000+uint64(i) || h.Load(p.Add(w-1)) != id {
					t.Error("region handed to two goroutines")
					return
				}
				held = append(held, p)
				if len(held) > 4 {
					h.FreeRegion(held[0], PageWords)
					held = held[1:]
				}
			}
			for _, p := range held {
				h.FreeRegion(p, PageWords)
			}
		}(uint64(g))
	}
	wg.Wait()
	s := h.Stats()
	if s.LiveWords != 0 {
		t.Errorf("LiveWords = %d after all frees", s.LiveWords)
	}
	if s.RegionAllocs != goroutines*iters {
		t.Errorf("RegionAllocs = %d, want %d", s.RegionAllocs, goroutines*iters)
	}
	if s.RegionAllocs != s.RegionFrees {
		t.Errorf("allocs %d != frees %d", s.RegionAllocs, s.RegionFrees)
	}
}

func TestConcurrentBinContention(t *testing.T) {
	// Hammer one bin from many goroutines: exercises the tagged-head
	// push/pop ABA protection.
	h := NewHeap(Config{SegmentWordsLog2: 16, TotalWordsLog2: 26})
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				p, words, err := h.AllocRegion(1)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				h.FreeRegion(p, words)
			}
		}()
	}
	wg.Wait()
	if live := h.Stats().LiveWords; live != 0 {
		t.Errorf("LiveWords = %d", live)
	}
}

// accessors is every way to reach one heap word; the translation tests
// below hold for each of them alike.
// load is Load through a func value, so the test binary keeps the
// out-of-line Load whose branches and instructions ci/inline_guard.sh
// counts (every other call inlines it).
var load = (*Heap).Load

var accessors = []struct {
	name string
	do   func(h *Heap, p Ptr)
}{
	{"Load", func(h *Heap, p Ptr) { load(h, p) }},
	{"Store", func(h *Heap, p Ptr) { h.Store(p, 1) }},
	{"CAS", func(h *Heap, p Ptr) { h.CAS(p, 0, 1) }},
	{"Get", func(h *Heap, p Ptr) { h.Get(p) }},
	{"Set", func(h *Heap, p Ptr) { h.Set(p, 1) }},
	{"Words", func(h *Heap, p Ptr) { h.Words(p, 1) }},
}

// panicOf runs f and returns the value it panicked with, or nil.
func panicOf(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

func TestWordsPanicsOnStraddle(t *testing.T) {
	h := newTestHeap()
	p, _, _ := h.AllocRegion(8)
	for _, n := range []uint64{h.SegmentWords() + 1, h.SegmentWords() - uint64(p) + 1, ^uint64(0)} {
		v := panicOf(func() { h.Words(p, n) })
		if v == nil {
			t.Fatalf("Words(%v, %d) across the segment boundary did not panic", p, n)
		}
		if msg := fmt.Sprint(v); !strings.Contains(msg, "straddles a segment boundary") {
			t.Errorf("Words(%v, %d) panicked with %q", p, n, msg)
		}
	}
	// Up to the last word of the segment is one slice, of exactly n words,
	// once the bump pointer has passed that word.
	for !h.Mapped(Ptr(h.SegmentWords() - 1)) {
		if _, _, err := h.AllocRegion(PageWords); err != nil {
			t.Fatal(err)
		}
	}
	n := h.SegmentWords() - uint64(p)
	if w := h.Words(p, n); uint64(len(w)) != n || uint64(cap(w)) != n {
		t.Errorf("Words(%v, %d): len %d cap %d", p, n, len(w), cap(w))
	}
}

// TestAccessUnmappedPanics: the nil page, the bump pointer's frontier
// and every address past it lie outside the reserved range. On a default
// heap with one region reserved, each accessor panics there with the
// same message and Mapped is false, while the first and last reserved
// words are mapped.
func TestAccessUnmappedPanics(t *testing.T) {
	h := NewHeap(Config{})
	if _, _, err := h.AllocRegion(8); err != nil {
		t.Fatal(err)
	}
	frontier := Ptr(h.Stats().ReservedWords)
	if !h.Mapped(PageWords) || !h.Mapped(frontier-1) {
		t.Errorf("the reserved range [%v, %v) is not mapped", Ptr(PageWords), frontier)
	}
	unmapped := []Ptr{0, PageWords - 1, frontier, Ptr(h.TotalWords()), ^Ptr(0)}
	for _, p := range unmapped {
		if h.Mapped(p) {
			t.Errorf("Mapped(%v) = true", p)
		}
	}
	for _, acc := range accessors {
		t.Run(acc.name, func(t *testing.T) {
			for _, p := range unmapped {
				want := fmt.Sprintf("mem: access to unmapped address %v", p)
				v := panicOf(func() { acc.do(h, p) })
				if err, ok := v.(error); !ok || err.Error() != want {
					t.Errorf("%s(%v) panicked with %#v, want an error reading %q", acc.name, p, v, want)
				}
			}
		})
	}
	// A slice may not reach past the frontier either: the last reserved
	// word is mapped, the one after it is not.
	last := frontier - 1
	want := fmt.Sprintf("mem: access to unmapped address %v", frontier)
	if v := panicOf(func() { h.Words(last, 2) }); fmt.Sprint(v) != want {
		t.Errorf("Words(%v, 2) panicked with %#v, want %q", last, v, want)
	}
}

// TestAccessBeyondAddressSpacePanics: an address at or past the heap's
// total words lies past the mapping; every accessor panics rather than
// wrap around or touch foreign memory.
func TestAccessBeyondAddressSpacePanics(t *testing.T) {
	h := newTestHeap()
	total := Ptr(1 << 24)
	for _, acc := range accessors {
		for _, p := range []Ptr{total, total + 1, 1 << 40, ^Ptr(0)} {
			if panicOf(func() { acc.do(h, p) }) == nil {
				t.Errorf("%s(%v) beyond the address space did not panic", acc.name, p)
			}
		}
	}
}

// TestTranslationAcrossSegments writes a distinct value to the first
// and last word of regions in several segments through one accessor and
// reads it back through the others: every accessor must translate every
// segment alike, not just segment 0.
func TestTranslationAcrossSegments(t *testing.T) {
	h := newTestHeap()
	seg := h.SegmentWords()
	var ptrs []Ptr
	for len(ptrs) < 6 { // 3 segments' worth of half-segment regions
		p, words, err := h.AllocRegion(seg / 2)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p, p.Add(words-1))
	}
	for i, p := range ptrs {
		h.Store(p, uint64(i)+100)
	}
	for i, p := range ptrs {
		want := uint64(i) + 100
		if got := h.Load(p); got != want {
			t.Errorf("Load(%v) = %d, want %d", p, got, want)
		}
		if got := h.Get(p); got != want {
			t.Errorf("Get(%v) = %d, want %d", p, got, want)
		}
		if got := h.Words(p, 1)[0]; got != want {
			t.Errorf("Words(%v, 1)[0] = %d, want %d", p, got, want)
		}
		if !h.CAS(p, want, want+1) {
			t.Errorf("CAS(%v) failed on the value just read", p)
		}
		h.Set(p, want)
	}
}

// TestLargeRegionIsOneSlice: Words spans a large region whole and
// aliases the accessors; the region recycles like any other, and the
// address space after it is served as before.
func TestLargeRegionIsOneSlice(t *testing.T) {
	for _, c := range []struct {
		heap  Config
		bytes []uint64
	}{
		{Config{}, []uint64{4 << 20, 16<<20 - WordBytes}}, // the second is MaxRegionWords
		{Config{TotalWordsLog2: 28}, []uint64{300 << 10, 1 << 20, 4 << 20}},
	} {
		h := NewHeap(c.heap)
		for _, size := range c.bytes {
			p, err := h.LargeAlloc(size, SizePrefix)
			if err != nil {
				t.Fatalf("%+v: LargeAlloc(%d): %v", c.heap, size, err)
			}
			base, n := p-1, SizePrefixWords(h.Load(p-1))
			w := h.Words(base, n)
			if uint64(len(w)) != n {
				t.Fatalf("Words(%v, %d) has %d words", base, n, len(w))
			}
			for _, i := range []uint64{0, n / 2, n - 1} {
				w[i] = i + 7
				if got := h.Load(base.Add(i)); got != i+7 {
					t.Errorf("%+v: Words(%v, %d)[%d] does not alias Load: %d", c.heap, base, n, i, got)
				}
			}
			h.LargeFree(p, n)
			if q, err := h.LargeAlloc(size, SizePrefix); err != nil || q != p {
				t.Errorf("%+v: LargeAlloc(%d) after free = %v, %v; want %v again", c.heap, size, q, err, p)
			}
			// The bump pointer stands at the large region's end: the next
			// small region starts there.
			small, sw, err := h.AllocRegion(PageWords)
			if err != nil || !h.Mapped(small) || !h.Mapped(small.Add(sw-1)) {
				t.Fatalf("%+v: small region after a large one: %v, %v, mapped %v", c.heap, small, err, h.Mapped(small))
			}
			h.Store(small.Add(sw-1), 1)
		}
		if _, err := h.LargeAlloc(h.MaxRegionWords()*WordBytes, SizePrefix); !errors.Is(err, ErrOutOfMemory) {
			t.Errorf("%+v: a region of MaxRegionWords()+1 words: %v, want ErrOutOfMemory", c.heap, err)
		}
		if _, _, err := h.AllocRegion(h.MaxRegionWords() + 1); !errors.Is(err, ErrOutOfMemory) {
			t.Errorf("%+v: AllocRegion(MaxRegionWords()+1): %v, want ErrOutOfMemory", c.heap, err)
		}
	}
}

// TestTotalWordsEdges: the address space is raised to 2^15 words and to
// the segment, and clamped to 2^31 words, which also bounds the segment;
// the reservation is exactly the address space.
func TestTotalWordsEdges(t *testing.T) {
	for _, c := range []struct {
		heap            Config
		total, segWords uint64
	}{
		{Config{}, 1 << 31, 1 << 21},
		{Config{TotalWordsLog2: 40}, 1 << 31, 1 << 21},
		{Config{TotalWordsLog2: 32}, 1 << 31, 1 << 21},
		{Config{TotalWordsLog2: 1}, 1 << 21, 1 << 21},
		{Config{SegmentWordsLog2: 12, TotalWordsLog2: 13}, 1 << 15, 1 << 12},
		{Config{SegmentWordsLog2: 34}, 1 << 31, 1 << 31},
	} {
		h := NewHeap(c.heap)
		if h.TotalWords() != c.total || h.SegmentWords() != c.segWords {
			t.Errorf("%+v: TotalWords %d, SegmentWords %d; want %d, %d",
				c.heap, h.TotalWords(), h.SegmentWords(), c.total, c.segWords)
		}
		if got := uint64(len(h.res.mem)); got != c.total*WordBytes {
			t.Errorf("%+v: a reservation of %d bytes for %d words", c.heap, got, c.total)
		}
		if h.Mapped(Ptr(c.total)) || panicOf(func() { h.Load(Ptr(c.total)) }) == nil {
			t.Errorf("%+v: the first word past the address space is reachable", c.heap)
		}
	}
}

// TestAlignedRegionAcrossGranules: a hyperblock-sized aligned region is
// one contiguous run of words.
func TestAlignedRegionAcrossGranules(t *testing.T) {
	h := NewHeap(Config{TotalWordsLog2: 28})
	const words = 1 << 17 // 1 MiB
	p, err := h.AllocRegionAligned(words, words)
	if err != nil || uint64(p)%words != 0 {
		t.Fatalf("AllocRegionAligned = %v, %v", p, err)
	}
	s := h.Words(p, words)
	s[words-1] = 42
	if uint64(len(s)) != words || h.Load(p.Add(words-1)) != 42 {
		t.Errorf("Words(%v, %d): len %d, last word reads %d", p, uint64(words), len(s), h.Load(p.Add(words-1)))
	}
}
