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
