package bench

import (
	"encoding/json"
	"testing"
	"time"

	"repro/alloc"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// TestResultTelemetrySummary: a workload run on a lock-free allocator
// with a recorder attached yields a populated per-run telemetry
// summary; allocators without a recorder yield none.
func TestResultTelemetrySummary(t *testing.T) {
	opt := testOptions()
	opt.LockFree.Telemetry = core.NewRecorder(telemetry.Config{})
	a := alloc.NewLockFree(opt)
	w := LinuxScalability{Pairs: 2000, Size: 8}

	r := w.Run(a, 2)
	if r.Telemetry == nil {
		t.Fatal("Result.Telemetry is nil with a recorder attached")
	}
	if r.Telemetry.MallocP50NS == 0 {
		t.Error("malloc p50 is zero after a real run")
	}
	if r.Telemetry.MallocP99NS < r.Telemetry.MallocP50NS {
		t.Errorf("p99 %d < p50 %d", r.Telemetry.MallocP99NS, r.Telemetry.MallocP50NS)
	}

	// The summary must cover only this run's interval: a second run's
	// latency counts start over rather than accumulating.
	r2 := w.Run(a, 2)
	if r2.Telemetry == nil {
		t.Fatal("second run lost the telemetry summary")
	}

	// A result with telemetry round-trips through JSON (the benchmal
	// -json path).
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	if back.Telemetry == nil || back.Telemetry.MallocP50NS != r.Telemetry.MallocP50NS {
		t.Error("telemetry summary did not survive the JSON round trip")
	}

	// No recorder: no summary.
	plain := alloc.NewLockFree(testOptions())
	if r := w.Run(plain, 1); r.Telemetry != nil {
		t.Error("Result.Telemetry non-nil without a recorder")
	}
	serial, err := alloc.New("serial", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r := w.Run(serial, 1); r.Telemetry != nil {
		t.Error("serial allocator produced a telemetry summary")
	}
}

// TestWalkedWalksOnlyUnderCensus: Walked adds its concurrent census
// walker, and a Result its Census, exactly on an allocator with a walker
// of its own structures, recorder or not, and runs the workload alone
// elsewhere. A plain Larson run carries no Census.
func TestWalkedWalksOnlyUnderCensus(t *testing.T) {
	larson := Larson{Duration: 50 * time.Millisecond, BlocksPerThread: 64, MinSize: 16, MaxSize: 80}
	for _, c := range []struct {
		name     string
		recorded bool
		walks    bool
	}{{"lockfree", true, true}, {"lockfree", false, true}, {"buddy", false, true}, {"serial", false, false}} {
		opt := testOptions()
		if c.recorded {
			opt.LockFree.Telemetry = core.NewRecorder(telemetry.Config{})
		}
		a, err := alloc.New(c.name, opt)
		if err != nil {
			t.Fatal(err)
		}
		r := Walked{larson}.Run(a, 2)
		if r.Workload != "larson" || r.Ops == 0 {
			t.Errorf("%s: result %+v is not the inner workload's", c.name, r)
		}
		if (r.CensusWalks > 0) != c.walks || (r.Census != nil) != c.walks {
			t.Errorf("%s (recorder %v): %d walks, census %v; want both present = %v",
				c.name, c.recorded, r.CensusWalks, r.Census, c.walks)
		}
		if r := larson.Run(a, 2); r.Census != nil || r.CensusWalks != 0 {
			t.Errorf("%s: a run without a walker carries census %v, %d walks", c.name, r.Census, r.CensusWalks)
		}
	}
}

// TestResultMagazineDeltas: a row's magazine columns are the lock-free
// allocator's core.OpStats over that run alone — every small malloc is
// a hit or a miss, and the handle's Unregister flush falls inside the
// interval — so a second run on the same allocator starts from zero.
func TestResultMagazineDeltas(t *testing.T) {
	opt := testOptions()
	opt.LockFree.MagazineSize = 8
	opt.LockFree.Telemetry = core.NewRecorder(telemetry.Config{})
	a := alloc.NewLockFree(opt)
	w := LinuxScalability{Pairs: 2000, Size: 8}
	for run := 0; run < 2; run++ {
		tel := w.Run(a, 1).Telemetry
		if tel == nil {
			t.Fatal("Result.Telemetry is nil with a recorder attached")
		}
		if tel.MagHits+tel.MagMisses != 2000 || tel.MagFlushes == 0 {
			t.Errorf("run %d: %d hits + %d misses, %d flushes; want 2000 mallocs and the Unregister flush",
				run, tel.MagHits, tel.MagMisses, tel.MagFlushes)
		}
		if want := float64(tel.MagHits) / 2000; tel.MagHitRate != want || want < 0.99 {
			t.Errorf("run %d: hit rate %v, want %v (>= 0.99 on a pair loop)", run, tel.MagHitRate, want)
		}
	}
}
