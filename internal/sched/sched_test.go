package sched

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/pool"
)

// TestKillAtEveryPoint kills one victim at each instrumented point in
// turn and requires survivors to finish: the paper's kill-tolerance
// claim, point by point.
func TestKillAtEveryPoint(t *testing.T) {
	for p := core.HookPoint(0); p < core.NumHookPoints; p++ {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			res, err := Run(Plan{
				Victims:        2,
				Survivors:      2,
				OpsPerSurvivor: 20000,
				OpsBeforeKill:  50,
				Seed:           int64(p) + 1,
				Point:          p,
			})
			if err != nil {
				t.Fatalf("survivors blocked: %v", err)
			}
			if res.SurvivorOps != 2*20000 {
				t.Errorf("survivor ops = %d", res.SurvivorOps)
			}
			if res.InvariantErr != nil {
				t.Errorf("structure corrupted: %v", res.InvariantErr)
			}
		})
	}
}

// TestKillAtEveryPointMagazine repeats the per-point kill sweep with
// the magazine layer on, so victims die inside the batched refill and
// flush paths too (including their dedicated hook points). A killed
// thread's magazine-cached blocks and any flush group removed from the
// magazine before the splice may leak; the structure must stay intact.
func TestKillAtEveryPointMagazine(t *testing.T) {
	for p := core.HookPoint(0); p < core.NumHookPoints; p++ {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			res, err := Run(Plan{
				Victims:        2,
				Survivors:      2,
				OpsPerSurvivor: 20000,
				OpsBeforeKill:  50,
				Seed:           int64(p) + 1,
				Point:          p,
				Magazine:       16,
			})
			if err != nil {
				t.Fatalf("survivors blocked: %v", err)
			}
			if res.SurvivorOps != 2*20000 {
				t.Errorf("survivor ops = %d", res.SurvivorOps)
			}
			if res.InvariantErr != nil {
				t.Errorf("structure corrupted: %v", res.InvariantErr)
			}
		})
	}
}

// TestMassacreMagazine is the random-point massacre with magazines on.
func TestMassacreMagazine(t *testing.T) {
	res, err := Run(Plan{
		Victims:        16,
		Survivors:      4,
		OpsPerSurvivor: 30000,
		OpsBeforeKill:  100,
		Seed:           7,
		Point:          -1,
		Magazine:       32,
	})
	if err != nil {
		t.Fatalf("survivors blocked: %v", err)
	}
	if res.InvariantErr != nil {
		t.Errorf("structure corrupted: %v", res.InvariantErr)
	}
	t.Logf("%v", res)
}

// TestMassacre kills many victims at random points concurrently with
// survivor progress.
func TestMassacre(t *testing.T) {
	res, err := Run(Plan{
		Victims:        16,
		Survivors:      4,
		OpsPerSurvivor: 30000,
		OpsBeforeKill:  100,
		Seed:           7,
		Point:          -1,
	})
	if err != nil {
		t.Fatalf("survivors blocked: %v", err)
	}
	if res.InvariantErr != nil {
		t.Errorf("structure corrupted: %v", res.InvariantErr)
	}
	t.Logf("%v", res)
}

// TestKillAtEveryPointArenas repeats the per-point kill sweep at both
// ends of the region-arena ablation — the unsharded OS layer
// (Arenas=1) and more arenas than processors — so victims die with
// cross-arena stealing and remote-free routing in play on both
// layouts. A thread killed mid-steal or mid-remote-free must never
// block other arenas.
func TestKillAtEveryPointArenas(t *testing.T) {
	for _, arenas := range []int{1, 6} {
		for p := core.HookPoint(0); p < core.NumHookPoints; p++ {
			p := p
			t.Run(fmt.Sprintf("arenas=%d/%v", arenas, p), func(t *testing.T) {
				res, err := Run(Plan{
					Victims:        2,
					Survivors:      2,
					OpsPerSurvivor: 10000,
					OpsBeforeKill:  50,
					Seed:           int64(p) + 100*int64(arenas),
					Point:          p,
					Arenas:         arenas,
				})
				if err != nil {
					t.Fatalf("survivors blocked: %v", err)
				}
				if res.SurvivorOps != 2*10000 {
					t.Errorf("survivor ops = %d", res.SurvivorOps)
				}
				if res.InvariantErr != nil {
					t.Errorf("structure corrupted: %v", res.InvariantErr)
				}
			})
		}
	}
}

// TestKillAtEveryPointDescStripes repeats the per-point kill sweep at
// both ends of the descriptor-pool ablation — the paper's single
// DescAvail list (DescStripes=1) and more stripes than processors — so
// victims die with cross-stripe chain migration in play on both
// layouts. A thread killed between a migration's detach CAS and its
// splice must never strand the chain where peers can't reach it.
func TestKillAtEveryPointDescStripes(t *testing.T) {
	for _, algo := range []pool.Algo{pool.AlgoFreelist, pool.AlgoConstTime} {
		for _, stripes := range []int{1, 6} {
			for p := core.HookPoint(0); p < core.NumHookPoints; p++ {
				p := p
				t.Run(fmt.Sprintf("algo=%s/stripes=%d/%v", algo, stripes, p), func(t *testing.T) {
					res, err := Run(Plan{
						Victims:        2,
						Survivors:      2,
						OpsPerSurvivor: 10000,
						OpsBeforeKill:  50,
						Seed:           int64(p) + 1000*int64(stripes),
						Point:          p,
						DescStripes:    stripes,
						DescAlgo:       algo,
					})
					if err != nil {
						t.Fatalf("survivors blocked: %v", err)
					}
					if res.SurvivorOps != 2*10000 {
						t.Errorf("survivor ops = %d", res.SurvivorOps)
					}
					if res.InvariantErr != nil {
						t.Errorf("structure corrupted: %v", res.InvariantErr)
					}
				})
			}
		}
	}
}

// TestLeakIsBounded verifies the kill damage is bounded memory: each
// victim can leak its held blocks plus at most a few superblocks'
// worth of reservations and stranded superblocks.
func TestLeakIsBounded(t *testing.T) {
	const victims = 8
	res, err := Run(Plan{
		Victims:        victims,
		Survivors:      2,
		OpsPerSurvivor: 10000,
		OpsBeforeKill:  200,
		Seed:           11,
		Point:          -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Bound: each victim holds < OpsBeforeKill+arming-window blocks of
	// <= 1 KiB plus can strand a handful of 16 KiB superblocks. A
	// generous envelope: 1 MiB per victim.
	maxLeak := uint64(victims) * (1 << 20) / 8 // words
	if res.LeakedWords > maxLeak {
		t.Errorf("leaked %d words, bound %d", res.LeakedWords, maxLeak)
	}
	t.Logf("%v", res)
}

// TestNoKillNoLeak sanity-checks the harness itself: with zero victims
// nothing leaks and survivors complete.
func TestNoKillNoLeak(t *testing.T) {
	res, err := Run(Plan{
		Victims:        0,
		Survivors:      4,
		OpsPerSurvivor: 20000,
		Seed:           3,
		Point:          -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// LeakedWords counts live OS space at the end; without kills that
	// is only the allocator's legitimate superblock cache (at most the
	// Active and Partial superblock of each processor heap touched: 8
	// size classes x 4 heaps x 2 superblocks x 2048 words).
	if bound := uint64(8 * 4 * 2 * 2048); res.LeakedWords > bound {
		t.Errorf("leaked %d words without kills (retention bound %d)", res.LeakedWords, bound)
	}
	if len(res.Kills) != 0 {
		t.Errorf("phantom kills: %v", res.Kills)
	}
	if res.InvariantErr != nil {
		t.Error(res.InvariantErr)
	}
}

// TestDelayedThreadDoesNotBlock models arbitrary delay (rather than
// death): a thread stalls at a hook point while survivors work, then
// resumes and completes — the lock-free progress property for delays.
func TestDelayedThreadDoesNotBlock(t *testing.T) {
	// Reuse Run with kills as the extreme form of delay; additionally
	// exercise an explicit stall-and-resume here.
	a := newTestAllocator()
	stall := make(chan struct{})
	resume := make(chan struct{})
	delayed := a.Thread()
	// Warm up so an active superblock exists: the hooked malloc must
	// take the MallocFromActive path (a first-ever malloc goes through
	// MallocFromNewSB, which has no reserve step).
	warm, err := delayed.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	delayed.Free(warm)
	fired := false
	delayed.SetHook(func(p core.HookPoint) {
		if p == core.HookMallocAfterReserve && !fired {
			fired = true
			close(stall)
			<-resume
		}
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		p, err := delayed.Malloc(8)
		if err != nil {
			t.Errorf("delayed malloc: %v", err)
			return
		}
		delayed.Free(p)
	}()
	<-stall
	// While the delayed thread is frozen mid-malloc (holding a
	// reservation), another thread must make unobstructed progress on
	// the same processor heap.
	th := a.Thread()
	for i := 0; i < 50000; i++ {
		p, err := th.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		th.Free(p)
	}
	close(resume)
	<-done
	if err := a.CheckInvariants(0); err != nil {
		t.Error(err)
	}
}

func newTestAllocator() *core.Allocator {
	return core.New(core.Config{Processors: 1})
}
