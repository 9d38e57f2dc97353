package sched

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/shadow"
	"repro/internal/telemetry"
)

// buddyKill is the panic value used to abandon a buddy operation.
type buddyKill struct{ point buddy.HookPoint }

// BuddyPlan schedules kills against the non-blocking buddy allocator
// (internal/buddy). The availability claim under test is the same as
// for the core: a thread dying between any two atomic steps of
// allocate (reserve, fragment) or free (mark, release, unmark) must
// never block other threads or corrupt the tree — the damage is the
// blocks the victim held (and a tree, if it died growing one) and some
// stranded coalescing marks, both bounded.
type BuddyPlan struct {
	// Victims is the number of goroutines killed mid-operation.
	Victims int
	// Survivors is the number of goroutines that must keep making
	// progress after all victims are dead.
	Survivors int
	// OpsPerSurvivor is each survivor's progress obligation.
	OpsPerSurvivor int
	// OpsBeforeKill is how many operations a victim completes before
	// its kill arms.
	OpsBeforeKill int
	// Seed drives the randomized choice of kill points.
	Seed int64
	// Point, if >= 0, pins every kill to one hook point; -1 draws a
	// random point per victim.
	Point buddy.HookPoint
	// TreeWordsLog2 sizes the buddy trees (0 = the allocator default).
	// Small trees put every operation's coalescing path through the
	// same few ancestors, maximizing interleaving with the kills.
	TreeWordsLog2 int
	// Telemetry, when non-nil, receives the buddy-* CAS-retry sites.
	Telemetry *telemetry.Stripes
	// Shadow mirrors every completed Malloc/Free into a shadow-heap
	// oracle in collecting mode (requires the shadowheap build tag).
	// Mirroring is ordered so a kill cannot desynchronize the model: a
	// malloc is noted only after it returns (a victim killed
	// mid-fragment leaks a block the oracle never saw, and nobody can
	// reuse it), and a free is noted before the status words change (a
	// victim killed mid-free leaves a block the oracle counts freed,
	// which is either released or stranded-occupied — never handed out
	// twice).
	Shadow bool
}

// BuddyResult reports what happened.
type BuddyResult struct {
	// Kills counts the kills that actually fired, by point.
	Kills map[buddy.HookPoint]int
	// SurvivorOps is the total operations completed by survivors.
	SurvivorOps uint64
	// LeakedWords is the heap space still live after survivors freed
	// everything they own: the memory lost to kills.
	LeakedWords uint64
	// LeakedBlocks is the number of blocks victims held when they died.
	// They stay occupied forever.
	LeakedBlocks int
	// CoalBits counts every coalescing mark set after the run. A free
	// whose merge stops below a live block's buddy leaves its marks on
	// the ancestors above the stop for that block's own free to clear;
	// a leaked block is never freed, so each one can pin up to one root
	// path of such marks. Bounded by (kills + LeakedBlocks) times tree
	// depth, and harmless: every mark sits beside its side's occupancy
	// bit and is swept by the next allocation passing through it.
	CoalBits int
	// StrandedCoalBits counts the marks no live block accounts for
	// (buddy.OrphanCoalBits): those of victims killed between marking
	// and the end of unmarking. Bounded by kills times tree depth — a
	// victim strands at most one root path of marks.
	StrandedCoalBits int
	// InvariantErr is non-nil if the post-mortem safety check found
	// double ownership — two live blocks covering one word. Leaks and
	// stranded marks are expected after kills; overlap never is.
	InvariantErr error
	// ProbeErr is non-nil if the functional probe (fresh allocations
	// at every order, written and freed) failed after the kills.
	ProbeErr error
	// ShadowErr is the shadow oracle's verdict (nil when Plan.Shadow is
	// unset or the binary lacks the shadowheap tag).
	ShadowErr error
}

func (r BuddyResult) String() string {
	return fmt.Sprintf("sched/buddy: kills=%v survivorOps=%d leakedWords=%d leakedBlocks=%d coalBits=%d stranded=%d",
		r.Kills, r.SurvivorOps, r.LeakedWords, r.LeakedBlocks, r.CoalBits, r.StrandedCoalBits)
}

// RunBuddy executes the plan against a fresh buddy allocator. It
// returns an error only if a survivor could not complete its
// operations — i.e. if a kill blocked the allocator, violating
// non-blockingness.
func RunBuddy(plan BuddyPlan) (BuddyResult, error) {
	rng := rand.New(rand.NewSource(plan.Seed))
	treeLog2 := plan.TreeWordsLog2
	if treeLog2 == 0 {
		treeLog2 = 12
	}
	a := buddy.New(buddy.Config{
		HeapConfig:    mem.Config{SegmentWordsLog2: 18, TotalWordsLog2: 28},
		TreeWordsLog2: treeLog2,
		Telemetry:     plan.Telemetry,
	})
	var sh *shadow.Oracle
	if plan.Shadow {
		// Collecting mode: an empty OnViolation suppresses the default
		// panic; violations accumulate and surface via Result.ShadowErr.
		// VerifyOnReuse is off for the same reason as the chunk heaps
		// (see alloc.NewBuddy): fragmenting a coalesced block writes a
		// sub-block prefix inside an enclosing freed extent.
		sh = shadow.New(shadow.Config{
			Name:        "buddy",
			Heap:        a.Heap(),
			OnViolation: func(shadow.Violation) {},
		})
	}

	res := BuddyResult{Kills: map[buddy.HookPoint]int{}}
	var killMu sync.Mutex

	var victims sync.WaitGroup
	for v := 0; v < plan.Victims; v++ {
		point := plan.Point
		if point < 0 {
			point = buddy.HookPoint(rng.Intn(int(buddy.NumHookPoints)))
		}
		skip := rng.Int63n(4)
		victims.Add(1)
		go func(point buddy.HookPoint, skip int64, seed int64) {
			defer victims.Done()
			th := a.Thread()
			var armed atomic.Bool
			counter := skip
			th.SetHook(func(p buddy.HookPoint) {
				if !armed.Load() || p != point {
					return
				}
				if counter > 0 {
					counter--
					return
				}
				panic(buddyKill{p})
			})
			r := rand.New(rand.NewSource(seed))
			var held []mem.Ptr
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						ks, ok := rec.(buddyKill)
						if !ok {
							panic(rec)
						}
						killMu.Lock()
						res.Kills[ks.point]++
						res.LeakedBlocks += len(held) // a killed thread leaks what it holds
						killMu.Unlock()
						held = nil
					}
				}()
				// Churn across several orders until the kill fires
				// (bounded: a point never reached means the victim dies
				// of natural causes and frees its blocks like anyone).
				for i := 0; i < plan.OpsBeforeKill+200000; i++ {
					if i == plan.OpsBeforeKill {
						armed.Store(true)
					}
					if len(held) > 0 && r.Intn(3) == 0 {
						p := held[len(held)-1]
						sh.NoteFree(uint64(seed), p)
						th.Free(p)
						held = held[:len(held)-1]
						continue
					}
					sz := uint64(8 << r.Intn(8))
					p, err := th.Malloc(sz)
					if err != nil {
						panic(err)
					}
					sh.NoteMalloc(uint64(seed), p, sz, th.UsableWords(p))
					held = append(held, p)
				}
				th.SetHook(nil)
				for _, p := range held {
					sh.NoteFree(uint64(seed), p)
					th.Free(p)
				}
				held = nil
			}()
		}(point, skip, int64(v)+100)
	}

	// Survivors run concurrently with the dying victims and must
	// finish their quota regardless.
	survivorErrs := make(chan error, plan.Survivors)
	var survivorOps atomic.Uint64
	var survivors sync.WaitGroup
	for s := 0; s < plan.Survivors; s++ {
		survivors.Add(1)
		go func(seed int64) {
			defer survivors.Done()
			th := a.Thread()
			r := rand.New(rand.NewSource(seed))
			var held []mem.Ptr
			for i := 0; i < plan.OpsPerSurvivor; i++ {
				if len(held) > 0 && (r.Intn(2) == 0 || len(held) > 32) {
					p := held[len(held)-1]
					sh.NoteFree(uint64(seed), p)
					th.Free(p)
					held = held[:len(held)-1]
					continue
				}
				sz := uint64(8 << r.Intn(8))
				p, err := th.Malloc(sz)
				if err != nil {
					survivorErrs <- fmt.Errorf("survivor malloc: %w", err)
					return
				}
				sh.NoteMalloc(uint64(seed), p, sz, th.UsableWords(p))
				held = append(held, p)
			}
			for _, p := range held {
				sh.NoteFree(uint64(seed), p)
				th.Free(p)
			}
			survivorOps.Add(uint64(plan.OpsPerSurvivor))
		}(int64(s) + 1000)
	}

	victims.Wait()
	survivors.Wait()
	close(survivorErrs)
	for err := range survivorErrs {
		return res, err
	}
	res.SurvivorOps = survivorOps.Load()
	// The tree regions themselves are the allocator's backing store,
	// live by construction; the leak is anything beyond them.
	stats := a.Stats()
	res.LeakedWords = a.Heap().Stats().LiveWords - uint64(stats.Trees)*stats.TreeWords
	res.CoalBits = a.CoalBits()
	res.StrandedCoalBits = a.OrphanCoalBits()
	// Post-mortem: kills may leak blocks and strand coalescing marks,
	// but no word may ever be owned by two live blocks (the non-strict
	// safety walk), and the allocator must still function at every
	// order — the probe allocates, writes, and frees a block of each
	// size through the damaged trees.
	res.InvariantErr = a.CheckInvariants(false)
	// Collect the oracle's verdict before the probe: the probe reuses
	// freed (poisoned) blocks without mirroring, so its writes must not
	// count against the write-after-free check.
	res.ShadowErr = sh.Err()
	res.ProbeErr = buddyProbe(a)
	return res, nil
}

// buddyProbe exercises every order of a possibly-damaged allocator:
// fresh allocations must still come back usable and disjoint.
func buddyProbe(a *buddy.Allocator) error {
	th := a.Thread()
	h := a.Heap()
	var ptrs []mem.Ptr
	for order := 0; order <= a.Depth(); order++ {
		bytes := (a.MaxBlockWords()>>order - 1) * mem.WordBytes
		p, err := th.Malloc(bytes)
		if err != nil {
			return fmt.Errorf("probe malloc at order %d (%d bytes): %w", order, bytes, err)
		}
		h.Set(p, uint64(order)+0xb0d0)
		ptrs = append(ptrs, p)
	}
	for i, p := range ptrs {
		if got := h.Get(p); got != uint64(i)+0xb0d0 {
			return fmt.Errorf("probe block at order %d: tattoo %#x clobbered", i, got)
		}
		th.Free(p)
	}
	return nil
}
