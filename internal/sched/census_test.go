package sched

import (
	"testing"

	"repro/internal/buddy"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// censusTarget is the lock-free shape the census sweeps run on: two
// processor heaps, magazines, and the allocation sampler on.
func censusTarget(oracle bool) Target {
	return lockFree(core.Config{
		Processors:   2,
		MagazineSize: 8,
		Telemetry:    core.NewRecorder(telemetry.Config{SampleRate: 64}),
	}, oracle)
}

// TestCensusSurvivesKillAtEveryPoint pins victims to each hook point in
// turn, of the lock-free core and of the buddy, while the backend's
// census walker loops concurrently: a thread killed between any two
// atomic steps of the allocator must leave structures the lock-free
// walk still reads consistently — the walker never panics, never
// blocks, and keeps completing walks.
func TestCensusSurvivesKillAtEveryPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("kill sweep is slow")
	}
	sweep := func(name string, point int, target Target) {
		t.Run(name, func(t *testing.T) {
			res, err := Run(Plan{
				Victims:        2,
				Survivors:      2,
				OpsPerSurvivor: 3000,
				OpsBeforeKill:  50,
				Seed:           int64(point) + 1,
				Point:          point,
				Census:         true,
			}, target)
			if err != nil {
				t.Fatalf("survivors blocked: %v", err)
			}
			if res.CensusErr != nil {
				t.Fatalf("census walker died: %v", res.CensusErr)
			}
			if res.CensusWalks == 0 {
				t.Error("no census walks completed during the run")
			}
			if res.InvariantErr != nil {
				t.Fatalf("post-mortem corruption: %v", res.InvariantErr)
			}
		})
	}
	for p := core.HookPoint(0); p < core.NumHookPoints; p++ {
		sweep(p.String(), int(p), censusTarget(false))
	}
	for p := buddy.HookPoint(0); p < buddy.NumHookPoints; p++ {
		target, _ := buddyTarget(buddy.Config{}, false)
		sweep("buddy/"+p.String(), int(p), target)
	}
}

// TestCensusWalkerRandomKills drives the randomized sweep (a fresh
// random point per victim) with the walker and sampler on — the
// configuration CI runs under -race.
func TestCensusWalkerRandomKills(t *testing.T) {
	res, err := Run(Plan{
		Victims:        4,
		Survivors:      4,
		OpsPerSurvivor: 4000,
		OpsBeforeKill:  100,
		Seed:           7,
		Point:          -1,
		Census:         true,
	}, censusTarget(true))
	if err != nil {
		t.Fatalf("survivors blocked: %v", err)
	}
	if res.CensusErr != nil {
		t.Fatalf("census walker died: %v", res.CensusErr)
	}
	if res.CensusWalks == 0 {
		t.Error("no census walks completed")
	}
	if res.InvariantErr != nil {
		t.Fatalf("post-mortem corruption: %v", res.InvariantErr)
	}
	if res.ShadowErr != nil {
		t.Fatalf("shadow oracle: %v", res.ShadowErr)
	}
}
