package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sizeclass"
)

func TestUsableWords(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	cases := []struct {
		req  uint64
		want uint64
	}{
		{8, 1},    // class 8 B -> 1 payload word
		{9, 2},    // rounds to 16 B class
		{100, 14}, // 112 B class
		{sizeclass.MaxPayloadBytes, sizeclass.MaxPayloadBytes / mem.WordBytes}, // the top class, exactly
		{sizeclass.MaxPayloadBytes - 8, sizeclass.MaxPayloadBytes / mem.WordBytes},
	}
	for _, c := range cases {
		p, err := th.Malloc(c.req)
		if err != nil {
			t.Fatal(err)
		}
		if got := th.UsableWords(p); got != c.want {
			t.Errorf("UsableWords(Malloc(%d)) = %d, want %d", c.req, got, c.want)
		}
		th.Free(p)
	}
	// Large block.
	p, err := th.Malloc(100000)
	if err != nil {
		t.Fatal(err)
	}
	if got := th.UsableWords(p); got < 100000/8 {
		t.Errorf("large UsableWords = %d", got)
	}
	th.Free(p)
}

func TestMallocZeroed(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	// Dirty a block, free it, and confirm the recycled block comes
	// back zeroed.
	p, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		a.heap.Set(p.Add(i), ^uint64(0))
	}
	th.Free(p)
	q, err := th.MallocZeroed(64)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatalf("expected LIFO reuse of the dirty block")
	}
	for i := uint64(0); i < 8; i++ {
		if got := a.heap.Get(q.Add(i)); got != 0 {
			t.Errorf("word %d = %#x after MallocZeroed", i, got)
		}
	}
	th.Free(q)
}

func TestReallocGrow(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	p, err := th.Malloc(16)
	if err != nil {
		t.Fatal(err)
	}
	a.heap.Set(p, 111)
	a.heap.Set(p.Add(1), 222)
	q, err := th.Realloc(p, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if q == p {
		t.Fatal("grow across classes should move the block")
	}
	if a.heap.Get(q) != 111 || a.heap.Get(q.Add(1)) != 222 {
		t.Error("payload lost across Realloc")
	}
	// The whole new payload is writable.
	for i := uint64(0); i < 1024/8; i++ {
		a.heap.Set(q.Add(i), i)
	}
	th.Free(q)
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestReallocInPlace(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	p, err := th.Malloc(100) // 112-byte class: 14 words usable
	if err != nil {
		t.Fatal(err)
	}
	q, err := th.Realloc(p, 112)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Error("grow within the class should stay in place")
	}
	q, err = th.Realloc(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Error("shrink should stay in place")
	}
	th.Free(q)
}

func TestReallocNilAndZero(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	p, err := th.Realloc(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if p.IsNil() {
		t.Fatal("Realloc(nil, n) must allocate")
	}
	q, err := th.Realloc(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	th.Free(q)
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

func TestReallocSmallToLargeAndBack(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	p, err := th.Malloc(2048)
	if err != nil {
		t.Fatal(err)
	}
	words := uint64(2048 / 8)
	for i := uint64(0); i < words; i++ {
		a.heap.Set(p.Add(i), i*3)
	}
	big, err := th.Realloc(p, sizeclass.MaxPayloadBytes*4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < words; i++ {
		if a.heap.Get(big.Add(i)) != i*3 {
			t.Fatalf("payload lost at word %d crossing into large block", i)
		}
	}
	small, err := th.Realloc(big, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Realloc never shrinks in place across the large/small boundary?
	// It may: UsableWords(big) >= 2 words, so it stays. Either way the
	// first words survive.
	if a.heap.Get(small) != 0 || a.heap.Get(small.Add(1)) != 3 {
		t.Error("payload prefix lost on shrink")
	}
	th.Free(small)
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
	if live := a.Heap().Stats().LiveWords; live > 8*sizeclass.SuperblockWords {
		t.Errorf("excess retention after realloc cycle: %d words", live)
	}
}

func TestReallocStress(t *testing.T) {
	a := newTestAllocator(t, testConfig())
	th := a.Thread()
	p, err := th.MallocZeroed(8)
	if err != nil {
		t.Fatal(err)
	}
	content := []uint64{}
	cur := uint64(1)
	for i := 0; i < 200; i++ {
		// Grow by appending a word each round; contents must persist.
		content = append(content, cur)
		words := uint64(len(content))
		p, err = th.Realloc(p, words*mem.WordBytes)
		if err != nil {
			t.Fatal(err)
		}
		a.heap.Set(p.Add(words-1), cur)
		for j, want := range content {
			if got := a.heap.Get(p.Add(uint64(j))); got != want {
				t.Fatalf("round %d: word %d = %d, want %d", i, j, got, want)
			}
		}
		cur = cur*7 + 1
	}
	th.Free(p)
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}
