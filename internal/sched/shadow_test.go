package sched

import (
	"testing"

	"repro/alloc"
	"repro/internal/core"
	"repro/internal/mem"
)

// TestRunShadowCleanUnderKills runs the kill harness with the oracle
// attached: kills may leak, but no double hand-out, stale poison, or
// model divergence may appear, with magazines and sharded arenas on.
func TestRunShadowCleanUnderKills(t *testing.T) {
	heap := sweepHeap
	heap.Arenas = 2
	res, err := Run(Plan{
		Victims:        3,
		Survivors:      3,
		OpsPerSurvivor: 3000,
		OpsBeforeKill:  100,
		Seed:           7,
		Point:          -1,
	}, lockFree(core.Config{MagazineSize: 8, HeapConfig: heap}, true))
	if err != nil {
		t.Fatalf("survivors blocked: %v", err)
	}
	if res.InvariantErr != nil {
		t.Fatalf("invariants: %v", res.InvariantErr)
	}
	if res.ShadowErr != nil {
		t.Fatalf("shadow oracle: %v", res.ShadowErr)
	}
}

// TestExploreShadowTerminalCheck attaches a fresh collecting oracle to
// each schedule's allocator; runSchedule consults it as an additional
// terminal check, so any interleaving that produced a model divergence
// would fail the exploration with the decision vector.
func TestExploreShadowTerminalCheck(t *testing.T) {
	script := func(th alloc.Thread) {
		p, err := th.Malloc(64)
		if err != nil {
			panic(err)
		}
		q, err := th.Malloc(200)
		if err != nil {
			panic(err)
		}
		th.Free(p)
		th.Free(q)
	}
	res, err := Explore(ExploreConfig{
		NewTarget: func() Target {
			return lockFree(core.Config{
				Processors: 1,
				HeapConfig: mem.Config{SegmentWordsLog2: 14, TotalWordsLog2: 22},
			}, true)
		},
		Scripts: []Script{script, script},
		// Each schedule's oracle is registered process-wide; release it,
		// or two thousand allocators stay reachable until the test ends.
		Check: func(t Target) error {
			t.(alloc.Harness).Oracle().Close()
			return nil
		},
		MaxSchedules: 2000,
	})
	if err != nil {
		t.Fatalf("exploration failed: %v", err)
	}
	if res.Schedules == 0 {
		t.Fatal("no schedules executed")
	}
}
