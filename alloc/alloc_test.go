package alloc

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/shadow"
)

func testOptions() Options {
	return Options{
		Processors: 4,
		HeapConfig: mem.Config{TotalWordsLog2: 28},
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		a, err := New(name, testOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, a.Name())
		}
	}
	for alias, want := range map[string]string{"new": "lockfree", "libc": "serial"} {
		a, err := New(alias, testOptions())
		if err != nil {
			t.Fatalf("%s: %v", alias, err)
		}
		if a.Name() != want {
			t.Errorf("alias %q -> %q, want %q", alias, a.Name(), want)
		}
	}
	if _, err := New("bogus", testOptions()); err == nil {
		t.Error("unknown allocator accepted")
	}
}

// TestConformance runs the same behavioural checks against every
// allocator through the common interface.
func TestConformance(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			a, err := New(name, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			t.Run("roundtrip", func(t *testing.T) { conformRoundtrip(t, a) })
			t.Run("distinct", func(t *testing.T) { conformDistinct(t, a) })
			t.Run("large", func(t *testing.T) { conformLarge(t, a) })
			t.Run("freeNil", func(t *testing.T) { a.NewThread().Free(0) })
			t.Run("crossThreadFree", func(t *testing.T) { conformCrossFree(t, a) })
			t.Run("integrityStress", func(t *testing.T) { conformStress(t, a) })
			t.Run("integrityStressShadow", func(t *testing.T) { conformStressShadow(t, name) })
		})
	}
}

func conformRoundtrip(t *testing.T, a Allocator) {
	th := a.NewThread()
	heap := a.Heap()
	// Zero-size allocation must return a valid, freeable pointer
	// (C malloc(0) semantics).
	z, err := th.Malloc(0)
	if err != nil {
		t.Fatalf("Malloc(0): %v", err)
	}
	if z.IsNil() {
		t.Fatal("Malloc(0) returned nil")
	}
	th.Free(z)
	for _, sz := range []uint64{1, 8, 16, 100, 1024, 2048} {
		p, err := th.Malloc(sz)
		if err != nil {
			t.Fatalf("Malloc(%d): %v", sz, err)
		}
		words := (sz + 7) / 8
		for i := uint64(0); i < words; i++ {
			heap.Set(p.Add(i), sz<<32|i)
		}
		for i := uint64(0); i < words; i++ {
			if heap.Get(p.Add(i)) != sz<<32|i {
				t.Fatalf("size %d: payload word %d corrupted", sz, i)
			}
		}
		th.Free(p)
	}
}

func conformDistinct(t *testing.T, a Allocator) {
	th := a.NewThread()
	seen := map[mem.Ptr]bool{}
	var ptrs []mem.Ptr
	for i := 0; i < 3000; i++ {
		p, err := th.Malloc(24)
		if err != nil {
			t.Fatal(err)
		}
		if seen[p] {
			t.Fatalf("pointer %v returned twice", p)
		}
		seen[p] = true
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		th.Free(p)
	}
}

func conformLarge(t *testing.T, a Allocator) {
	th := a.NewThread()
	heap := a.Heap()
	p, err := th.Malloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	heap.Set(p, 1)
	heap.Set(p.Add(1<<20/8-1), 2)
	if heap.Get(p) != 1 || heap.Get(p.Add(1<<20/8-1)) != 2 {
		t.Fatal("large block corrupted")
	}
	th.Free(p)
}

func conformCrossFree(t *testing.T, a Allocator) {
	heap := a.Heap()
	ch := make(chan mem.Ptr, 64)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		th := a.NewThread()
		for i := uint64(0); i < 5000; i++ {
			p, err := th.Malloc(40)
			if err != nil {
				t.Errorf("malloc: %v", err)
				return
			}
			heap.Store(p, i)
			ch <- p
		}
		close(ch)
	}()
	go func() {
		defer wg.Done()
		th := a.NewThread()
		want := uint64(0)
		for p := range ch {
			if got := heap.Load(p); got != want {
				t.Errorf("block %d: payload %d", want, got)
				return
			}
			th.Free(p)
			want++
		}
	}()
	wg.Wait()
}

func conformStress(t *testing.T, a Allocator) {
	heap := a.Heap()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			th := a.NewThread()
			rng := rand.New(rand.NewSource(seed))
			type held struct {
				p   mem.Ptr
				w   uint64
				tag uint64
			}
			var live []held
			for i := 0; i < 10000; i++ {
				if len(live) > 0 && (rng.Intn(2) == 0 || len(live) > 48) {
					k := rng.Intn(len(live))
					h := live[k]
					for w := uint64(0); w < h.w; w++ {
						if heap.Get(h.p.Add(w)) != h.tag+w {
							t.Errorf("corruption at %v word %d", h.p, w)
							return
						}
					}
					th.Free(h.p)
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
				sz := uint64(8 << rng.Intn(9))
				p, err := th.Malloc(sz)
				if err != nil {
					t.Errorf("malloc: %v", err)
					return
				}
				w := sz / 8
				tag := uint64(seed)<<48 | uint64(i)<<16
				for j := uint64(0); j < w; j++ {
					heap.Set(p.Add(j), tag+j)
				}
				live = append(live, held{p, w, tag})
			}
			for _, h := range live {
				th.Free(h.p)
			}
		}(int64(g) + 1)
	}
	wg.Wait()
}

// conformStressShadow is integrityStress on a fresh allocator of the
// same backend under the shadow oracle, which fails the test on any
// violation. Heap words are not Go memory, so the race detector does not
// see payload accesses: the oracle is what catches two owners of one
// block (a Malloc of a block still live) and, where the backend allows
// reuse verification, a write into a freed one, and it does so in every
// build.
func conformStressShadow(t *testing.T, name string) {
	var mu sync.Mutex
	var vs []shadow.Violation
	opt := testOptions()
	opt.Shadow = true
	opt.ShadowConfig.OnViolation = func(v shadow.Violation) {
		mu.Lock()
		vs = append(vs, v)
		mu.Unlock()
	}
	a, err := New(name, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer HarnessOf(a).Oracle().Close()
	conformStress(t, a)
	mu.Lock()
	defer mu.Unlock()
	if len(vs) != 0 {
		t.Fatalf("%d violations, the first: %v", len(vs), vs[0])
	}
}

func TestCoreAccessor(t *testing.T) {
	a := NewLockFree(testOptions())
	ca, ok := a.(CoreAccessor)
	if !ok {
		t.Fatal("lockfree wrapper does not expose CoreAccessor")
	}
	th := a.NewThread()
	p, err := th.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if got := ca.Core().Stats().Ops.Mallocs; got != 1 {
		t.Errorf("Mallocs = %d", got)
	}
	th.Free(p)
	if err := ca.Core().CheckInvariants(0); err != nil {
		t.Error(err)
	}
}

// TestConfigValidation: a contradictory or out-of-range lock-free
// configuration is an error from core.Config.Validate and from New, and
// a panic from the constructors whose signatures have no error; zero
// values and in-range settings construct.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.Config
		want string // substring of the error; "" = valid
	}{
		{"zero value", core.Config{}, ""},
		{"in range", core.Config{MaxCredits: 64, MagazineSize: 8, Processors: 1}, ""},
		{"credits above 64", core.Config{MaxCredits: 100}, "MaxCredits 100"},
		{"negative credits", core.Config{MaxCredits: -1}, "MaxCredits -1"},
		{"negative magazine", core.Config{MagazineSize: -1}, "MagazineSize -1"},
		{"negative processors", core.Config{Processors: -2}, "Processors -2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opt := Options{HeapConfig: c.cfg.HeapConfig, LockFree: c.cfg}
			verr := c.cfg.Validate()
			a, err := New("lockfree", opt)
			if c.want == "" {
				if verr != nil || err != nil || a == nil {
					t.Fatalf("Validate = %v, New = %v, %v; want a valid allocator", verr, a, err)
				}
				return
			}
			if verr == nil || !strings.Contains(verr.Error(), c.want) {
				t.Errorf("Validate = %v, want an error naming %q", verr, c.want)
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("New error = %v, want one naming %q", err, c.want)
			}
			defer func() {
				if recover() == nil {
					t.Error("NewLockFree did not panic on an invalid configuration")
				}
			}()
			NewLockFree(opt)
		})
	}
}
