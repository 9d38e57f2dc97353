package sched

import (
	"testing"

	"repro/internal/buddy"
	"repro/internal/telemetry"
)

// TestBuddyKillAtEveryPoint pins victims to each buddy hook point in
// turn: wherever a thread dies — after reserving a node, between
// fragmentation CASes, after marking, after releasing, mid-unmark, or
// before publishing a grown tree — survivors must finish their quota,
// the post-mortem safety walk must find no double ownership, no node
// may be stranded half-merged beyond the bounded coalescing marks, and
// fresh allocations at every order must still work.
//
// Two bounds on the marks. Those no live block accounts for come only
// from victims killed mid-free, one root path each. The rest are pinned
// by the blocks the victims held when they died (a free next to a live
// block stops merging there and leaves its marks above), so they scale
// with the leaked blocks, not with the kills: a victim pinned to
// grow-before-publish dies only when a whole tree has filled up, holding
// far more blocks than one pinned to a point every operation passes.
func TestBuddyKillAtEveryPoint(t *testing.T) {
	for p := buddy.HookPoint(0); p < buddy.NumHookPoints; p++ {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			res, err := RunBuddy(BuddyPlan{
				Victims:        6,
				Survivors:      4,
				OpsPerSurvivor: 3000,
				OpsBeforeKill:  50,
				Seed:           int64(p) + 7,
				Point:          p,
			})
			if err != nil {
				t.Fatalf("survivors blocked: %v (%v)", err, res)
			}
			if res.SurvivorOps != 4*3000 {
				t.Fatalf("SurvivorOps = %d, want %d (%v)", res.SurvivorOps, 4*3000, res)
			}
			if res.InvariantErr != nil {
				t.Fatalf("post-mortem corruption: %v (%v)", res.InvariantErr, res)
			}
			if res.ProbeErr != nil {
				t.Fatalf("allocator unusable after kills: %v (%v)", res.ProbeErr, res)
			}
			kills := 0
			for _, n := range res.Kills {
				kills += n
			}
			// Each victim killed mid-free strands at most one root path
			// of coalescing marks (depth bits); more means unmark logic
			// leaked marks it should have cleared.
			depth := 12 - 3 // TreeWordsLog2 default in RunBuddy minus leaf log2
			if res.StrandedCoalBits > kills*depth {
				t.Fatalf("StrandedCoalBits = %d, want <= kills(%d) * depth(%d) (%v)",
					res.StrandedCoalBits, kills, depth, res)
			}
			if bound := (kills + res.LeakedBlocks) * depth; res.CoalBits > bound {
				t.Fatalf("CoalBits = %d, want <= (kills(%d) + leaked blocks(%d)) * depth(%d) (%v)",
					res.CoalBits, kills, res.LeakedBlocks, depth, res)
			}
		})
	}
}

// TestBuddyRandomKills draws random kill points, the configuration the
// CI smoke runs at scale.
func TestBuddyRandomKills(t *testing.T) {
	st := &telemetry.Stripes{}
	res, err := RunBuddy(BuddyPlan{
		Victims:        10,
		Survivors:      4,
		OpsPerSurvivor: 5000,
		OpsBeforeKill:  100,
		Seed:           42,
		Point:          -1,
		Telemetry:      st,
	})
	if err != nil {
		t.Fatalf("survivors blocked: %v (%v)", err, res)
	}
	if res.InvariantErr != nil {
		t.Fatalf("post-mortem corruption: %v (%v)", res.InvariantErr, res)
	}
	if res.ProbeErr != nil {
		t.Fatalf("allocator unusable after kills: %v (%v)", res.ProbeErr, res)
	}
}

// TestBuddyNoKillsIsClean sanity-checks the harness itself: with zero
// victims nothing may leak and no coalescing marks may remain.
func TestBuddyNoKillsIsClean(t *testing.T) {
	res, err := RunBuddy(BuddyPlan{
		Survivors:      4,
		OpsPerSurvivor: 4000,
		Seed:           7,
		Point:          -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LeakedWords != 0 {
		t.Fatalf("LeakedWords = %d with no kills, want 0 (%v)", res.LeakedWords, res)
	}
	if res.CoalBits != 0 {
		t.Fatalf("CoalBits = %d with no kills, want 0 (%v)", res.CoalBits, res)
	}
	if res.InvariantErr != nil {
		t.Fatal(res.InvariantErr)
	}
}

// TestBuddyKillsUnderShadowOracle runs the random-kill sweep with the
// shadow-heap oracle mirroring every completed operation. Under the
// shadowheap build tag this verifies kills never produce double-free,
// overlap, or write-after-free visible to the oracle; without the tag
// the oracle is compiled out and the run degenerates to the plain
// sweep.
func TestBuddyKillsUnderShadowOracle(t *testing.T) {
	res, err := RunBuddy(BuddyPlan{
		Victims:        8,
		Survivors:      4,
		OpsPerSurvivor: 3000,
		OpsBeforeKill:  100,
		Seed:           7,
		Point:          -1,
		Shadow:         true,
	})
	if err != nil {
		t.Fatalf("survivors blocked: %v", err)
	}
	if res.ShadowErr != nil {
		t.Fatalf("shadow oracle: %v", res.ShadowErr)
	}
	if res.InvariantErr != nil {
		t.Fatalf("invariants: %v", res.InvariantErr)
	}
	if res.ProbeErr != nil {
		t.Fatalf("probe: %v", res.ProbeErr)
	}
}
