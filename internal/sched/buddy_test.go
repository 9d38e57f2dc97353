package sched

import (
	"testing"

	"repro/alloc"
	"repro/internal/buddy"
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
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			target, depth := buddyTarget(false, false)
			res, err := Run(Plan{
				Victims:        6,
				Survivors:      4,
				OpsPerSurvivor: 3000,
				OpsBeforeKill:  50,
				Seed:           int64(p) + 7,
				Point:          int(p),
			}, target)
			if err != nil {
				t.Fatalf("survivors blocked: %v (%v)", err, res)
			}
			if res.SurvivorOps != 4*3000 {
				t.Fatalf("SurvivorOps = %d, want %d (%v)", res.SurvivorOps, 4*3000, res)
			}
			checkBuddyPostMortem(t, res)
			// Each victim killed mid-free strands at most one root path
			// of coalescing marks (depth bits); more means unmark logic
			// leaked marks it should have cleared.
			kills := kills(res)
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

// checkBuddyPostMortem: kills may leak and strand marks, never corrupt
// the trees or leave the allocator unable to serve an order.
func checkBuddyPostMortem(t *testing.T, res Result) {
	t.Helper()
	if res.InvariantErr != nil {
		t.Fatalf("post-mortem corruption: %v (%v)", res.InvariantErr, res)
	}
	if res.ProbeErr != nil {
		t.Fatalf("allocator unusable after kills: %v (%v)", res.ProbeErr, res)
	}
}

// TestBuddyRandomKills draws random kill points, the configuration the
// CI smoke runs at scale.
func TestBuddyRandomKills(t *testing.T) {
	target, _ := buddyTarget(true, false)
	res, err := Run(Plan{
		Victims:        10,
		Survivors:      4,
		OpsPerSurvivor: 5000,
		OpsBeforeKill:  100,
		Seed:           42,
		Point:          -1,
	}, target)
	if err != nil {
		t.Fatalf("survivors blocked: %v (%v)", err, res)
	}
	checkBuddyPostMortem(t, res)
}

// TestBuddyNoKillsIsClean sanity-checks the harness itself: with zero
// victims nothing may leak and no coalescing marks may remain.
func TestBuddyNoKillsIsClean(t *testing.T) {
	target, _ := buddyTarget(false, false)
	res, err := Run(Plan{
		Survivors:      4,
		OpsPerSurvivor: 4000,
		Seed:           7,
		Point:          -1,
	}, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.LeakedWords != 0 {
		t.Fatalf("LeakedWords = %d with no kills, want 0 (%v)", res.LeakedWords, res)
	}
	if res.CoalBits != 0 {
		t.Fatalf("CoalBits = %d with no kills, want 0 (%v)", res.CoalBits, res)
	}
	checkBuddyPostMortem(t, res)
	// Nothing died, so the strict check applies too: exact tree
	// consistency and every tree coalesced back into one block.
	if err := target.Inspect(0).InvariantErr; err != nil {
		t.Fatal(err)
	}
}

// TestBuddyKillsUnderShadowOracle runs the random-kill sweep with the
// shadow-heap oracle mirroring every completed operation: kills must
// never produce a double free or an overlap visible to the oracle. The
// mirroring (alloc's oracle wrapper) is ordered so a kill
// cannot desynchronize the model: a malloc is noted only after it
// returns (a victim killed mid-fragment leaks a block the oracle never
// saw, and nobody can reuse it), and a free is noted before the status
// words change (a victim killed mid-free leaves a block the oracle
// counts freed, which is either released or stranded-occupied — never
// handed out twice).
func TestBuddyKillsUnderShadowOracle(t *testing.T) {
	target, _ := buddyTarget(false, true)
	res, err := Run(Plan{
		Victims:        8,
		Survivors:      4,
		OpsPerSurvivor: 3000,
		OpsBeforeKill:  100,
		Seed:           7,
		Point:          -1,
	}, target)
	if err != nil {
		t.Fatalf("survivors blocked: %v", err)
	}
	if res.ShadowErr != nil {
		t.Fatalf("shadow oracle: %v", res.ShadowErr)
	}
	checkBuddyPostMortem(t, res)
}

// TestRegistryTargetsMatchTheirBackends: the harness reaches the hook
// points through alloc's registry, so the table there must be the
// backends' own enumeration, in order.
func TestRegistryTargetsMatchTheirBackends(t *testing.T) {
	target, _ := buddyTarget(false, false)
	names := target.HookPoints()
	if len(names) != int(buddy.NumHookPoints) {
		t.Fatalf("buddy target has %d hook points, want %d", len(names), buddy.NumHookPoints)
	}
	for p := buddy.HookPoint(0); p < buddy.NumHookPoints; p++ {
		if names[p] != p.String() {
			t.Errorf("buddy point %d is %q in the registry, %q in the backend", p, names[p], p)
		}
	}
	for _, b := range alloc.Backends() {
		if (b.Name == "lockfree" || b.Name == "buddy") != (len(b.HookPoints) > 0) {
			t.Errorf("%s: %d hook points", b.Name, len(b.HookPoints))
		}
	}
}
