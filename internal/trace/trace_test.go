package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/alloc"
	"repro/internal/mem"
)

func genCfg(p Pattern) GenConfig {
	return GenConfig{
		Threads: 4,
		Events:  20000,
		Seed:    1,
		Pattern: p,
		MinSize: 8,
		MaxSize: 256,
	}
}

func TestGenerateValid(t *testing.T) {
	for _, p := range []Pattern{Private, ProducerConsumer, Bursty} {
		tr := Generate(genCfg(p))
		if err := tr.Validate(); err != nil {
			t.Errorf("pattern %d: %v", p, err)
		}
		s := tr.Stats()
		if s.Mallocs == 0 || s.Frees == 0 {
			t.Errorf("pattern %d: degenerate trace %+v", p, s)
		}
		if s.Mallocs < s.Frees {
			t.Errorf("pattern %d: more frees than mallocs", p)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(genCfg(Private))
	b := Generate(genCfg(Private))
	if len(a.Events) != len(b.Events) {
		t.Fatal("nondeterministic length")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestValidateCatchesDoubleFree(t *testing.T) {
	tr := &Trace{
		Threads: 1,
		Events: []Event{
			{Op: OpMalloc, Size: 8},
			{Op: OpFree, Block: 0},
			{Op: OpFree, Block: 0},
		},
	}
	if tr.Validate() == nil {
		t.Error("double free not caught")
	}
}

func TestValidateCatchesUnknownBlock(t *testing.T) {
	tr := &Trace{Threads: 1, Events: []Event{{Op: OpFree, Block: 5}}}
	if tr.Validate() == nil {
		t.Error("free of unknown block not caught")
	}
}

func TestValidateCatchesBadThread(t *testing.T) {
	tr := &Trace{Threads: 1, Events: []Event{{Thread: 3, Op: OpMalloc, Size: 8}}}
	if tr.Validate() == nil {
		t.Error("out-of-range thread not caught")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	for _, p := range []Pattern{Private, ProducerConsumer, Bursty} {
		tr := Generate(genCfg(p))
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Threads != tr.Threads || len(got.Events) != len(tr.Events) {
			t.Fatal("shape mismatch")
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				t.Fatalf("event %d: %+v != %+v", i, got.Events[i], tr.Events[i])
			}
		}
	}
}

func TestSerializationRoundTripProperty(t *testing.T) {
	f := func(seed int64, threads uint8, pattern uint8) bool {
		cfg := GenConfig{
			Threads: int(threads%6) + 1,
			Events:  500,
			Seed:    seed,
			Pattern: Pattern(pattern % 3),
			MinSize: 8,
			MaxSize: 64,
		}
		tr := Generate(cfg)
		var buf bytes.Buffer
		if tr.Write(&buf) != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestStats(t *testing.T) {
	tr := &Trace{
		Threads: 1,
		Events: []Event{
			{Op: OpMalloc, Size: 100},
			{Op: OpMalloc, Size: 50},
			{Op: OpFree, Block: 0},
			{Op: OpMalloc, Size: 10},
		},
	}
	s := tr.Stats()
	if s.Mallocs != 3 || s.Frees != 1 || s.MaxLive != 2 || s.EndLive != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.MaxBytes != 150 {
		t.Errorf("MaxBytes = %d, want 150", s.MaxBytes)
	}
}

func testOptions() alloc.Options {
	return alloc.Options{
		Processors: 4,
		HeapConfig: mem.Config{TotalWordsLog2: 28},
	}
}

func TestReplayAllAllocators(t *testing.T) {
	for _, p := range []Pattern{Private, ProducerConsumer, Bursty} {
		tr := Generate(genCfg(p))
		for _, name := range alloc.Names() {
			a, err := alloc.New(name, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			res, err := Replay(tr, a)
			if err != nil {
				t.Errorf("pattern %d on %s: %v", p, name, err)
				continue
			}
			if res.Events != len(tr.Events) {
				t.Errorf("%s: events = %d", name, res.Events)
			}
		}
	}
}

func TestReplayDetectsLiveness(t *testing.T) {
	tr := Generate(genCfg(ProducerConsumer))
	a, _ := alloc.New("lockfree", testOptions())
	res, err := Replay(tr, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.EndLive != tr.Stats().EndLive {
		t.Errorf("replay live %d != trace live %d", res.EndLive, tr.Stats().EndLive)
	}
	if ca, ok := a.(alloc.CoreAccessor); ok {
		if err := ca.Core().CheckInvariants(0); err != nil {
			t.Error(err)
		}
	}
}

func TestReplayRejectsInvalidTrace(t *testing.T) {
	tr := &Trace{Threads: 1, Events: []Event{{Op: OpFree, Block: 9}}}
	a, _ := alloc.New("serial", testOptions())
	if _, err := Replay(tr, a); err == nil {
		t.Error("invalid trace replayed")
	}
}
