package churn

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/alloc"
	"repro/internal/mem"
)

// ledger is a fake handle that records what the driver asks for.
type ledger struct {
	next    mem.Ptr
	live    map[mem.Ptr]uint64
	sizes   []uint64
	maxLive int
	failAt  int // fail the failAt-th Malloc (0 = never)
	gone    atomic.Bool
}

func newLedger() *ledger { return &ledger{live: map[mem.Ptr]uint64{}} }

func (l *ledger) Malloc(size uint64) (mem.Ptr, error) {
	if l.failAt > 0 && len(l.sizes)+1 == l.failAt {
		return 0, errors.New("out of memory")
	}
	l.next++
	l.live[l.next] = size
	l.sizes = append(l.sizes, size)
	l.maxLive = max(l.maxLive, len(l.live))
	return l.next, nil
}

func (l *ledger) Free(p mem.Ptr) {
	if _, ok := l.live[p]; !ok {
		panic("free of a block the driver does not hold")
	}
	delete(l.live, p)
}

func (l *ledger) Unregister() { l.gone.Store(true) }

func TestDriverIsAFunctionOfItsSeed(t *testing.T) {
	a, b, c := newLedger(), newLedger(), newLedger()
	da, db, dc := New(a, 7, Mixed), New(b, 7, Mixed), New(c, 8, Mixed)
	for i := 0; i < 5000; i++ {
		for _, d := range []*Driver{da, db, dc} {
			if err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(a.sizes) != len(b.sizes) || da.Live() != db.Live() {
		t.Fatalf("same seed diverged: %d vs %d mallocs", len(a.sizes), len(b.sizes))
	}
	for i := range a.sizes {
		if a.sizes[i] != b.sizes[i] {
			t.Fatalf("same seed diverged at malloc %d: %d vs %d bytes", i, a.sizes[i], b.sizes[i])
		}
	}
	same := len(a.sizes) == len(c.sizes)
	for i := 0; same && i < len(a.sizes); i++ {
		same = a.sizes[i] == c.sizes[i]
	}
	if same {
		t.Error("a different seed produced the same traffic")
	}
}

func TestMixesShapeTheTraffic(t *testing.T) {
	for name, tc := range map[string]struct {
		mix       Mix
		wantLarge bool
	}{"victim": {Victim, false}, "survivor": {Survivor, false}, "mixed": {Mixed, true}} {
		l := newLedger()
		d := New(l, 1, tc.mix)
		for i := 0; i < 20000; i++ {
			if err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if d.Live() != len(l.live) || d.Mallocs()-d.Frees() != uint64(d.Live()) || d.Mallocs()+d.Frees() != 20000 {
			t.Errorf("%s: Live=%d mallocs=%d frees=%d, ledger holds %d", name, d.Live(), d.Mallocs(), d.Frees(), len(l.live))
		}
		if tc.mix.MaxLive > 0 && l.maxLive > tc.mix.MaxLive+1 {
			t.Errorf("%s: live set reached %d, bound %d", name, l.maxLive, tc.mix.MaxLive)
		}
		if tc.mix.MaxLive == 0 && d.Live() < 5000 {
			t.Errorf("%s: unbounded mix holds only %d blocks after 20000 steps", name, d.Live())
		}
		large := false
		for _, sz := range l.sizes {
			if sz >= 4096 {
				large = true
			} else if sz < 8 || sz > 8<<(tc.mix.SizeShifts-1) || sz&(sz-1) != 0 {
				t.Fatalf("%s: small request of %d bytes", name, sz)
			}
		}
		if large != tc.wantLarge {
			t.Errorf("%s: large requests seen = %v", name, large)
		}
		d.Drain()
		if len(l.live) != 0 || d.Live() != 0 || d.Mallocs() != d.Frees() || !l.gone.Load() {
			t.Errorf("%s: after Drain %d blocks live, mallocs=%d frees=%d, unregistered=%v",
				name, len(l.live), d.Mallocs(), d.Frees(), l.gone.Load())
		}
	}
}

func TestRunDrainsEveryWorker(t *testing.T) {
	var ledgers []*ledger
	mallocs, frees, err := Run(3, 4000, 5, Mixed, func() alloc.Thread {
		l := newLedger()
		ledgers = append(ledgers, l)
		return l
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every step is one malloc or one free; the drains free the rest.
	if mallocs != frees || mallocs+frees <= 3*4000 {
		t.Errorf("mallocs=%d frees=%d after %d steps and the drains", mallocs, frees, 3*4000)
	}
	for i, l := range ledgers {
		if len(l.live) != 0 || !l.gone.Load() {
			t.Errorf("worker %d left %d blocks, unregistered=%v", i, len(l.live), l.gone.Load())
		}
	}
}

func TestRunReportsAMallocError(t *testing.T) {
	_, _, err := Run(2, 1000, 1, Survivor, func() alloc.Thread {
		l := newLedger()
		l.failAt = 100
		return l
	})
	if err == nil || err.Error() != "out of memory" {
		t.Fatalf("Run = %v, want the allocator's error", err)
	}
}
