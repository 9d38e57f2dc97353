// Package sched provides fault-injection harnesses for the lock-free
// allocator: it "kills" threads at instrumented points between atomic
// steps (core.HookPoint) and verifies the paper's availability claims
// (§1): other threads keep making progress no matter where a thread
// dies, and the damage is bounded memory, never blocked peers.
//
// Goroutines cannot literally be killed, so a victim abandons its
// operation by panicking out of the allocator (which holds no locks
// and no hidden shared-state ownership at any point, making unwinding
// always safe for its peers) and never touches the allocator again —
// observably identical to a kill, including the leak of whatever
// reservations it held.
package sched

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/shadow"
	"repro/internal/telemetry"
)

// killSignal is the panic value used to abandon an operation.
type killSignal struct{ point core.HookPoint }

// Plan schedules which operations die where.
type Plan struct {
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
	Point core.HookPoint
	// Processors configures the shared allocator.
	Processors int
	// Magazine sets Config.MagazineSize (0 = magazines off), so kill
	// tolerance can be verified with the batched refill/flush paths in
	// play.
	Magazine int
	// Arenas sets the region-arena count of the shared heap (0 =
	// one arena per processor, the allocator default; 1 = the
	// unsharded layout), so kill tolerance can be verified with
	// cross-arena stealing and remote-free routing in play.
	Arenas int
	// DescStripes sets the descriptor-pool stripe count (0 = one
	// stripe per processor, the allocator default; 1 = the paper's
	// single DescAvail list), so kill tolerance can be verified with
	// cross-stripe chain migration in play.
	DescStripes int
	// DescAlgo selects the descriptor pool's recycling backend
	// (pool.AlgoFreelist or pool.AlgoConstTime), so kill tolerance can
	// be verified with the Blelloch-Wei batch machinery in play.
	DescAlgo pool.Algo
	// Telemetry, when non-nil, is attached to the allocator; after the
	// run its flight recorder holds the events leading up to each kill
	// (every hook firing is recorded, so the ring's tail shows exactly
	// where each victim died).
	Telemetry *telemetry.Recorder
	// Shadow attaches a shadow-heap oracle in collecting mode (requires
	// the shadowheap build tag; a no-op without it). Kills may leak
	// blocks but must never make the allocator hand out overlapping or
	// stale memory — the oracle's verdict lands in Result.ShadowErr.
	Shadow bool
	// Census runs a heap-census walker concurrently with the victims
	// and survivors: the walk must tolerate kills at every hook point —
	// a thread dead mid-operation leaves structures the walker still
	// reads consistently — and must itself never panic or block. Walk
	// count and any walker failure land in Result.CensusWalks /
	// CensusErr.
	Census bool
}

// Result reports what happened.
type Result struct {
	// Kills counts the kills that actually fired, by point. (A victim
	// whose chosen point is never reached dies of natural causes —
	// completes its ops — and is not counted.)
	Kills map[core.HookPoint]int
	// SurvivorOps is the total operations completed by survivors.
	SurvivorOps uint64
	// LeakedWords is the heap space still live after survivors freed
	// everything they own: the memory lost to kills.
	LeakedWords uint64
	// InvariantErr is non-nil if the post-mortem structural check
	// found corruption (leaks are expected; corruption never is).
	InvariantErr error
	// ShadowErr is the shadow oracle's verdict (nil when Plan.Shadow is
	// off or the shadowheap build tag is absent).
	ShadowErr error
	// CensusWalks counts completed census walks (Plan.Census);
	// CensusErr is non-nil if a walk panicked — a walker must survive
	// kills anywhere in the allocator.
	CensusWalks int
	CensusErr   error
}

func (r Result) String() string {
	return fmt.Sprintf("sched: kills=%v survivorOps=%d leakedWords=%d",
		r.Kills, r.SurvivorOps, r.LeakedWords)
}

// Run executes the plan against a fresh allocator. It returns an error
// only if a survivor could not complete its operations — i.e. if a
// kill blocked the allocator, violating lock-freedom.
func Run(plan Plan) (Result, error) {
	rng := rand.New(rand.NewSource(plan.Seed))
	procs := plan.Processors
	if procs == 0 {
		procs = 4
	}
	var sh *shadow.Oracle
	if plan.Shadow {
		// Collecting mode: an empty OnViolation suppresses the default
		// panic; violations accumulate and surface via Result.ShadowErr.
		sh = shadow.New(shadow.Config{
			Name:          "lockfree",
			VerifyOnReuse: true,
			OnViolation:   func(shadow.Violation) {},
			Telemetry:     plan.Telemetry,
		})
	}
	a := core.New(core.Config{
		Processors:   procs,
		HeapConfig:   mem.Config{SegmentWordsLog2: 18, TotalWordsLog2: 28, Arenas: plan.Arenas},
		Telemetry:    plan.Telemetry,
		MagazineSize: plan.Magazine,
		DescStripes:  plan.DescStripes,
		DescAlgo:     plan.DescAlgo,
		Shadow:       sh,
	})

	res := Result{Kills: map[core.HookPoint]int{}}
	var killMu sync.Mutex

	// The census walker starts before the victims so walks overlap the
	// kills. Plain writes to res.CensusWalks/CensusErr are safe: the
	// goroutine exits before the close(censusStop)+Wait below, which
	// happens-before the reads.
	var censusStop chan struct{}
	var censusDone chan struct{}
	if plan.Census {
		censusStop = make(chan struct{})
		censusDone = make(chan struct{})
		go func() {
			defer close(censusDone)
			defer func() {
				if rec := recover(); rec != nil {
					res.CensusErr = fmt.Errorf("census walk panicked: %v\n%s", rec, debug.Stack())
				}
			}()
			for {
				select {
				case <-censusStop:
					return
				default:
				}
				census.Take(a)
				res.CensusWalks++
			}
		}()
	}

	var victims sync.WaitGroup
	for v := 0; v < plan.Victims; v++ {
		point := plan.Point
		if point < 0 {
			point = core.HookPoint(rng.Intn(int(core.NumHookPoints)))
		}
		skip := rng.Int63n(4)
		victims.Add(1)
		go func(point core.HookPoint, skip int64, seed int64) {
			defer victims.Done()
			th := a.Thread()
			var armed atomic.Bool
			counter := skip
			th.SetHook(func(p core.HookPoint) {
				if !armed.Load() || p != point {
					return
				}
				if counter > 0 {
					counter--
					return
				}
				panic(killSignal{p})
			})
			r := rand.New(rand.NewSource(seed))
			var held []mem.Ptr
			killed := false
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						ks, ok := rec.(killSignal)
						if !ok {
							panic(rec)
						}
						killed = true
						killMu.Lock()
						res.Kills[ks.point]++
						killMu.Unlock()
					}
				}()
				// Churn until the kill fires (bounded: if the point is
				// never reached, die of natural causes).
				for i := 0; i < plan.OpsBeforeKill+200000; i++ {
					if i == plan.OpsBeforeKill {
						armed.Store(true)
					}
					if len(held) > 0 && r.Intn(3) == 0 {
						th.Free(held[len(held)-1])
						held = held[:len(held)-1]
						continue
					}
					p, err := th.Malloc(uint64(8 << r.Intn(8)))
					if err != nil {
						panic(err)
					}
					held = append(held, p)
				}
			}()
			// A killed thread never touches the allocator again; its
			// held blocks leak, exactly as for a killed pthread. A
			// victim whose kill point was never reached survived, so
			// it cleans up like any live thread would.
			if !killed {
				th.SetHook(nil)
				for _, p := range held {
					th.Free(p)
				}
				th.Unregister()
			}
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
					th.Free(held[len(held)-1])
					held = held[:len(held)-1]
					continue
				}
				p, err := th.Malloc(uint64(8 << r.Intn(8)))
				if err != nil {
					survivorErrs <- fmt.Errorf("survivor malloc: %w", err)
					return
				}
				held = append(held, p)
			}
			for _, p := range held {
				th.Free(p)
			}
			th.Unregister()
			survivorOps.Add(uint64(plan.OpsPerSurvivor))
		}(int64(s) + 1000)
	}

	victims.Wait()
	survivors.Wait()
	if plan.Census {
		close(censusStop)
		<-censusDone
	}
	close(survivorErrs)
	for err := range survivorErrs {
		return res, err
	}
	res.SurvivorOps = survivorOps.Load()
	res.LeakedWords = a.Heap().Stats().LiveWords
	// Post-mortem: the structure must be intact (walkable free lists,
	// consistent counts); kills may only leak, never corrupt. Live
	// count is unknowable after kills, so pass -1.
	res.InvariantErr = a.CheckInvariants(-1)
	res.ShadowErr = sh.Err()
	return res, nil
}
