// Package sched provides fault-injection harnesses for the allocators
// with instrumented steps between their atomic operations (the hook
// points of an alloc.Backend): it "kills" threads at those points and
// verifies the paper's availability claims (§1): other threads keep
// making progress no matter where a thread dies, and the damage is
// bounded memory, never blocked peers.
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
	"time"

	"repro/alloc"
	"repro/internal/census"
	"repro/internal/churn"
)

// Target is the allocator under test as the harnesses see it; all that
// differs between backends is behind it. alloc.HarnessOf provides one
// (whose methods carry the full contracts) for every registered
// backend, from an allocator the caller built — heap shape, knobs,
// telemetry and shadow oracle are chosen there, not here.
type Target interface {
	// HookPoints names the kill points; the hook gets an index into it.
	HookPoints() []string
	// NewThread registers a fresh handle whose every instrumented step
	// calls hook (nil: none); panicking out of it abandons the operation.
	NewThread(hook func(point int)) alloc.Thread
	// Census makes one walk beside live and dead threads; nil: no walker.
	Census() *census.Census
	// ShadowErr is the mirroring oracle's verdict, nil without one.
	ShadowErr() error
	// Inspect checks the quiescent allocator holding live blocks, or an
	// unknown number (negative) after kills.
	Inspect(live int64) alloc.Report
}

// killSignal is the panic value used to abandon an operation.
type killSignal struct{ point int }

// stallDeadline is how long all victims and survivors together may go
// without completing a single operation before Run reports the
// allocator blocked. An operation takes microseconds and any one of
// them resets the clock, so only a thread parked on something a dead
// thread owns gets anywhere near it.
const stallDeadline = 2 * time.Second

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
	// Point, if >= 0, pins every kill to one hook point (an index into
	// Target.HookPoints); -1 draws a random point per victim.
	Point int
	// LargeOneIn, if > 0, turns one malloc in LargeOneIn, of victims and
	// survivors alike, into a request of 4096+rand(LargeSpan) bytes
	// (churn.Mix's fields of the same names); without it no request
	// exceeds 1 KiB.
	LargeOneIn, LargeSpan int
	// Census runs the target's census walker concurrently with the
	// victims and survivors: the walk must tolerate kills at every hook
	// point — a thread dead mid-operation leaves structures the walker
	// still reads consistently — and must itself never panic or block.
	// Walk count and any walker failure land in Result.CensusWalks /
	// CensusErr.
	Census bool
}

// Result reports what happened.
type Result struct {
	// Kills counts the kills that actually fired, by hook-point name.
	// (A victim whose chosen point is never reached dies of natural
	// causes — completes its ops — and is not counted.)
	Kills map[string]int
	// SurvivorOps is the total operations completed by survivors.
	SurvivorOps uint64
	// LeakedBlocks is the number of blocks victims held when they died.
	// They stay allocated forever.
	LeakedBlocks int
	// Report is the target's post-mortem, Inspect(-1): LeakedWords is
	// the memory lost to the kills; InvariantErr is non-nil if the
	// structural check found corruption (leaks are expected; corruption
	// never is) and ProbeErr if the allocator no longer serves requests.
	// The buddy's coalescing marks are bounded by the kills: CoalBits by
	// (kills + LeakedBlocks) × tree depth, StrandedCoalBits by kills ×
	// depth.
	alloc.Report
	// ShadowErr is the shadow oracle's verdict (nil when the target has
	// no oracle). Kills may leak blocks but must never make the
	// allocator hand out overlapping or stale memory.
	ShadowErr error
	// CensusWalks counts census walks completed while the threads ran
	// (Plan.Census), not the one made before they started;
	// CensusErr is non-nil if a walk panicked — a walker must survive
	// kills anywhere in the allocator.
	CensusWalks int
	CensusErr   error
}

func (r Result) String() string {
	s := fmt.Sprintf("sched: kills=%v survivorOps=%d leakedWords=%d leakedBlocks=%d",
		r.Kills, r.SurvivorOps, r.LeakedWords, r.LeakedBlocks)
	if r.CoalBits != 0 || r.StrandedCoalBits != 0 {
		s += fmt.Sprintf(" coalBits=%d stranded=%d", r.CoalBits, r.StrandedCoalBits)
	}
	return s
}

// Run executes the plan against the target. It returns an error if the
// plan does not fit the target, or if the survivors could not complete
// their operations — a Malloc failed, or no thread completed anything
// for stallDeadline, i.e. a kill blocked the allocator, violating
// lock-freedom. In the blocked case the stuck goroutines cannot be
// reclaimed and stay parked.
func Run(plan Plan, t Target) (Result, error) {
	points := t.HookPoints()
	if plan.Victims > 0 && len(points) == 0 {
		return Result{}, fmt.Errorf("sched: the target has no hook points to kill a thread at")
	}
	if plan.Point >= len(points) && plan.Victims > 0 {
		return Result{}, fmt.Errorf("sched: kill point %d of %d", plan.Point, len(points))
	}
	rng := rand.New(rand.NewSource(plan.Seed))
	res := Result{Kills: map[string]int{}}
	var killMu sync.Mutex // guards res.Kills and res.LeakedBlocks

	// The census walker makes one uncounted walk before any victim
	// starts; every walk it counts therefore began after the threads
	// were launched and overlaps the kills, and a run in which none
	// completes reports zero. Plain writes to res.CensusWalks/CensusErr
	// are safe: the goroutine exits before stopCensus returns, which
	// happens-before the reads.
	stopCensus := func() {}
	if plan.Census {
		stop, done := make(chan struct{}), make(chan struct{})
		// walked closes after the first walk, or when the walker exits
		// before finishing one (no census, or the walk panicked).
		walked := make(chan struct{})
		stopCensus = func() { close(stop); <-done }
		go func() {
			defer close(done)
			first := true
			defer func() {
				if first {
					close(walked)
				}
			}()
			defer func() {
				if rec := recover(); rec != nil {
					res.CensusErr = fmt.Errorf("census walk panicked: %v\n%s", rec, debug.Stack())
				}
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if t.Census() == nil {
					return
				}
				if first {
					first = false
					close(walked)
				} else {
					res.CensusWalks++
				}
			}
		}()
		<-walked
	}

	victimMix, survivorMix := churn.Victim, churn.Survivor
	victimMix.LargeOneIn, victimMix.LargeSpan = plan.LargeOneIn, plan.LargeSpan
	survivorMix.LargeOneIn, survivorMix.LargeSpan = plan.LargeOneIn, plan.LargeSpan

	var threads sync.WaitGroup
	drivers := make([]*churn.Driver, 0, plan.Victims+plan.Survivors)
	for v := 0; v < plan.Victims; v++ {
		point := plan.Point
		if point < 0 {
			point = rng.Intn(len(points))
		}
		skip := rng.Int63n(4)
		// armed and skip belong to the victim's goroutine: the hook runs
		// inside that goroutine's own Malloc and Free calls.
		armed := false
		th := t.NewThread(func(p int) {
			if !armed || p != point {
				return
			}
			if skip > 0 {
				skip--
				return
			}
			panic(killSignal{p})
		})
		d := churn.New(th, int64(v)+100, victimMix)
		drivers = append(drivers, d)
		threads.Add(1)
		go func() {
			defer threads.Done()
			if at, killed := victim(d, &armed, plan.OpsBeforeKill); killed {
				// A killed thread never touches the allocator again; its
				// held blocks leak, exactly as for a killed pthread.
				killMu.Lock()
				res.Kills[points[at]]++
				res.LeakedBlocks += d.Live()
				killMu.Unlock()
			}
		}()
	}

	// Survivors run concurrently with the dying victims and must
	// finish their quota regardless.
	survivorErrs := make(chan error, plan.Survivors)
	var survivorOps atomic.Uint64
	for s := 0; s < plan.Survivors; s++ {
		d := churn.New(t.NewThread(nil), int64(s)+1000, survivorMix)
		drivers = append(drivers, d)
		threads.Add(1)
		go func() {
			defer threads.Done()
			for i := 0; i < plan.OpsPerSurvivor; i++ {
				if err := d.Step(); err != nil {
					survivorErrs <- fmt.Errorf("survivor malloc: %w", err)
					return
				}
			}
			d.Drain()
			survivorOps.Add(uint64(plan.OpsPerSurvivor))
		}()
	}

	finished := make(chan struct{})
	go func() { threads.Wait(); close(finished) }()
	err := awaitProgress(finished, drivers)
	stopCensus()
	if err != nil {
		return res, err
	}
	close(survivorErrs)
	for err := range survivorErrs {
		return res, err
	}
	res.SurvivorOps = survivorOps.Load()
	// The oracle's verdict comes first: the post-mortem's probe reuses
	// freed (poisoned) blocks without mirroring, so its writes must not
	// count against the write-after-free check.
	res.ShadowErr = t.ShadowErr()
	// Post-mortem: the structure must be intact; kills may only leak,
	// never corrupt. What is live is unknowable after kills.
	res.Report = t.Inspect(-1)
	return res, nil
}

// victim churns until its kill fires and reports where it was killed.
// The kill arms after opsBeforeKill operations and stays armed while the
// victim, its quota done, departs (bounded: if the point is not reached
// then either, it dies of natural causes).
func victim(d *churn.Driver, armed *bool, opsBeforeKill int) (point int, killed bool) {
	defer func() {
		if rec := recover(); rec != nil {
			ks, ok := rec.(killSignal)
			if !ok {
				panic(rec)
			}
			point, killed = ks.point, true
		}
	}()
	for i := 0; i < opsBeforeKill+200000; i++ {
		if i == opsBeforeKill {
			*armed = true
		}
		if err := d.Step(); err != nil {
			panic(err)
		}
	}
	// A victim's live set only grows, so a step only a departing thread
	// takes (returning everything it holds empties its superblocks)
	// kills it here. Past that it has cleaned up like any live thread.
	d.Drain()
	return 0, false
}

// awaitProgress waits for finished, or fails once the drivers' combined
// operation count has stood still for stallDeadline.
func awaitProgress(finished <-chan struct{}, drivers []*churn.Driver) error {
	tick := time.NewTicker(stallDeadline / 8)
	defer tick.Stop()
	var last uint64
	lastAt := time.Now()
	for {
		select {
		case <-finished:
			return nil
		case now := <-tick.C:
			var ops uint64
			for _, d := range drivers {
				ops += d.Mallocs() + d.Frees()
			}
			if ops != last {
				last, lastAt = ops, now
			} else if now.Sub(lastAt) >= stallDeadline {
				return fmt.Errorf("sched: survivors blocked: no thread completed an operation in %v", stallDeadline)
			}
		}
	}
}
