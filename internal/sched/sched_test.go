package sched

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/alloc"
	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/sizeclass"
)

// TestKillAtEveryPoint kills one victim at each instrumented point in
// turn and requires survivors to finish: the paper's kill-tolerance
// claim, point by point.
func TestKillAtEveryPoint(t *testing.T) {
	sweepLockFree(t, "", 20000, func(p int64) int64 { return p + 1 }, core.Config{})
}

// TestKillAtEveryPointMagazine repeats the per-point kill sweep with
// the magazine layer on, so victims die inside the batched refill and
// flush paths too (including their dedicated hook points). A killed
// thread's magazine-cached blocks and any flush group removed from the
// magazine before the splice may leak; the structure must stay intact.
//
// With magazines on every Free is a magazine put and every malloc from
// Active a refill, so a kill at one of the paper's three points below
// can only have fired inside popLastCredit called by a refill or inside
// release called by a flush: the sweep reaches the shared routines
// through the magazine layer, and says so. (A victim's live set only
// grows; it empties a superblock, and dies at free-before-retire, when
// it departs and returns everything, still armed.)
func TestKillAtEveryPointMagazine(t *testing.T) {
	fired := sweepLockFree(t, "", 20000, func(p int64) int64 { return p + 1 }, core.Config{MagazineSize: 8})
	for _, p := range []core.HookPoint{core.HookMallocBeforeUpdateActive, core.HookFreeBeforeRetire, core.HookFreeBeforePutPartial} {
		if fired[p.String()] == 0 {
			t.Errorf("no victim died at %v with magazines on: kills %v", p, fired)
		}
	}
}

// TestKillAtEveryPointArenas repeats the per-point kill sweep on the
// one-arena OS layer — the one region allocator every thread shares —
// with its own seeds and a shorter quota than TestKillAtEveryPoint, so
// victims die mid-region-alloc and mid-region-free on a second schedule.
// A thread killed there must never block the threads sharing the
// region bins and the bump pointer. (The sweep once also ran six
// arenas; that layout is gone, and arenas=1 keeps its name.)
func TestKillAtEveryPointArenas(t *testing.T) {
	const arenas = 1
	sweepLockFree(t, fmt.Sprintf("arenas=%d/", arenas), 10000,
		func(p int64) int64 { return p + 100*arenas }, core.Config{HeapConfig: sweepHeap})
}

// TestKillAtEveryPointDescStripes repeats the per-point kill sweep at
// both ends of the descriptor-pool ablation — the paper's single
// DescAvail list (DescStripes=1) and more stripes than processors — so
// victims die with cross-stripe chain migration in play on both
// layouts, under both recycling backends. A thread killed between a
// migration's detach CAS and its splice must never strand the chain
// where peers can't reach it.
func TestKillAtEveryPointDescStripes(t *testing.T) {
	for _, algo := range []pool.Algo{pool.AlgoFreelist, pool.AlgoConstTime} {
		for _, stripes := range []int64{1, 6} {
			sweepLockFree(t, fmt.Sprintf("algo=%s/stripes=%d/", algo, stripes), 10000,
				func(p int64) int64 { return p + 1000*stripes },
				core.Config{DescStripes: int(stripes), DescAlgo: algo})
		}
	}
}

// TestKillAtEveryPointFewBlockClasses repeats the per-point kill sweep
// with one malloc in 16 between 4096 and sizeclass.MaxPayloadBytes
// (8184 B): the classes of three and two blocks a superblock, where a
// fresh superblock installs Active with one credit or none, every other
// malloc takes a last credit, and a victim dies holding half a
// superblock — without magazines and with a magazine a refill cannot
// half fill.
func TestKillAtEveryPointFewBlockClasses(t *testing.T) {
	for _, mag := range []int{0, 8} {
		sweepLockFreePlan(t, fmt.Sprintf("magazine=%d/", mag),
			Plan{OpsPerSurvivor: 10000, LargeOneIn: 16, LargeSpan: sizeclass.MaxPayloadBytes - 4096 + 1},
			func(p int64) int64 { return p + 10000 }, core.Config{MagazineSize: mag})
	}
}

// TestMassacre kills many victims at random points concurrently with
// survivor progress, without and with magazines.
func TestMassacre(t *testing.T)         { massacre(t, core.Config{}) }
func TestMassacreMagazine(t *testing.T) { massacre(t, core.Config{MagazineSize: 32}) }

func massacre(t *testing.T, cfg core.Config) {
	res, err := Run(Plan{
		Victims:        16,
		Survivors:      4,
		OpsPerSurvivor: 30000,
		OpsBeforeKill:  100,
		Seed:           7,
		Point:          -1,
	}, lockFree(cfg, false))
	if err != nil {
		t.Fatalf("survivors blocked: %v", err)
	}
	if res.InvariantErr != nil {
		t.Errorf("structure corrupted: %v", res.InvariantErr)
	}
	t.Logf("%v", res)
}

// TestKillSweepUsesTheCallersShape pins the reason Run takes a built
// allocator: a knob the harness has never heard of is in play during
// the sweep. (sched.Plan used to copy five core.Config fields and
// silently dropped the rest — mlfstress -kills -hyper ran without
// hyperblocks.)
func TestKillSweepUsesTheCallersShape(t *testing.T) {
	a := alloc.NewLockFree(alloc.Options{
		Processors: 4,
		HeapConfig: sweepHeap,
		LockFree:   core.Config{Hyperblocks: true, PartialLIFO: true, MaxCredits: 8},
	})
	res, err := Run(Plan{
		Victims:        4,
		Survivors:      2,
		OpsPerSurvivor: 10000,
		OpsBeforeKill:  100,
		Seed:           5,
		Point:          -1,
	}, alloc.HarnessOf(a))
	if err != nil {
		t.Fatalf("survivors blocked: %v", err)
	}
	if res.InvariantErr != nil {
		t.Errorf("structure corrupted: %v", res.InvariantErr)
	}
	if hs := a.(alloc.CoreAccessor).Core().HyperStats(); hs.HyperAllocs == 0 {
		t.Errorf("no hyperblock was allocated during the sweep: %+v", hs)
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
	}, lockFree(core.Config{}, false))
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
	}, lockFree(core.Config{}, false))
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
	if len(res.Kills) != 0 || res.LeakedBlocks != 0 {
		t.Errorf("phantom kills: %v", res)
	}
	if res.InvariantErr != nil {
		t.Error(res.InvariantErr)
	}
}

// lockedTarget is the negative control: a toy allocator that takes a
// mutex around every operation and has its one hook point inside the
// critical section, which is what any lock-based allocator looks like
// to a thread killed mid-operation.
type lockedTarget struct {
	mu     sync.Mutex
	next   mem.Ptr
	closed atomic.Bool // set when the test ends: Malloc fails, so the parked survivors leave
}

type lockedThread struct {
	t    *lockedTarget
	hook func(point int)
}

func (t *lockedTarget) HookPoints() []string       { return []string{"holding-the-lock"} }
func (t *lockedTarget) Census() *census.Census     { return nil }
func (t *lockedTarget) ShadowErr() error           { return nil }
func (t *lockedTarget) Inspect(int64) alloc.Report { return alloc.Report{} }
func (t *lockedTarget) NewThread(hook func(int)) alloc.Thread {
	return &lockedThread{t, hook}
}

func (th *lockedThread) Malloc(uint64) (mem.Ptr, error) {
	th.t.mu.Lock()
	if th.hook != nil {
		th.hook(0) // a kill here unwinds past the Unlock
	}
	th.t.next++
	p := th.t.next
	th.t.mu.Unlock()
	if th.t.closed.Load() {
		return 0, errors.New("lockedTarget closed")
	}
	return p, nil
}

func (th *lockedThread) Free(mem.Ptr) {
	th.t.mu.Lock()
	defer th.t.mu.Unlock()
}

// TestRunReportsABlockedAllocator is the proof that the sweep can
// detect what it exists to detect: one victim killed inside a lock-based
// allocator's critical section leaves the survivors parked on the lock,
// and Run must say so within its no-progress deadline instead of
// waiting for the test binary's timeout.
func TestRunReportsABlockedAllocator(t *testing.T) {
	t.Parallel() // it mostly waits for the deadline
	target := &lockedTarget{}
	t.Cleanup(func() {
		// Release the survivors parked behind the dead victim's lock.
		target.closed.Store(true)
		target.mu.TryLock()
		target.mu.Unlock()
	})
	start := time.Now()
	res, err := Run(Plan{
		Victims:        1,
		Survivors:      2,
		OpsPerSurvivor: 1 << 30,
		OpsBeforeKill:  10,
		Seed:           1,
		Point:          0,
	}, target)
	if err == nil || !strings.Contains(err.Error(), "survivors blocked") {
		t.Fatalf("Run = %v, %v; want the survivors-blocked error", res, err)
	}
	if took := time.Since(start); took > 2*stallDeadline {
		t.Errorf("verdict took %v, want within about the %v deadline", took, stallDeadline)
	}
}

// TestRunRejectsAPlanTheTargetCannotServe: a target without hook points
// cannot be swept, and a pinned point must exist.
func TestRunRejectsAPlanTheTargetCannotServe(t *testing.T) {
	hoard, err := alloc.New("hoard", alloc.Options{Processors: 2, HeapConfig: sweepHeap})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Plan{Victims: 1, Survivors: 1, OpsPerSurvivor: 10, Point: -1}, alloc.HarnessOf(hoard)); err == nil {
		t.Error("Run killed a thread inside an allocator with no hook points")
	}
	if _, err := Run(Plan{Victims: 1, Survivors: 1, OpsPerSurvivor: 10, Point: int(core.NumHookPoints)},
		lockFree(core.Config{}, false)); err == nil {
		t.Error("Run accepted a kill point past the target's table")
	}
}

// TestDelayedThreadDoesNotBlock models arbitrary delay (rather than
// death): a thread stalls at a hook point while survivors work, then
// resumes and completes — the lock-free progress property for delays.
func TestDelayedThreadDoesNotBlock(t *testing.T) {
	// Reuse Run with kills as the extreme form of delay; additionally
	// exercise an explicit stall-and-resume here.
	a := core.New(core.Config{Processors: 1})
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
