package sched

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/alloc"
)

// Explore is a stateless model checker for an allocator at hook-point
// granularity: it runs a set of scripted operations, one per thread,
// where every instrumented point (Target.HookPoints) is a scheduling
// yield, and systematically enumerates ALL interleavings of those
// yields by depth-first search over scheduler decisions, re-executing
// from a fresh allocator for each schedule.
//
// Because exactly one thread runs between yields (the director grants
// the CPU explicitly), each schedule is a deterministic sequential
// execution — the nondeterminism of the real concurrent algorithm is
// captured entirely by the interleaving of its CAS-delimited regions,
// which is precisely what the hook points delimit. A Check callback
// validates every terminal state.
//
// This is the §3.2 correctness argument turned mechanical for small
// configurations: the paper argues each interleaving case by hand
// ("Consider the case where thread X reads ... and is delayed");
// Explore enumerates them.

// Script is one thread's scripted work. It runs to completion under
// the director; every allocator hook inside is a yield point.
type Script func(th alloc.Thread)

// ExploreConfig configures an exploration.
type ExploreConfig struct {
	// NewTarget builds the fresh allocator for each schedule.
	NewTarget func() Target
	// Scripts are the per-thread operations (2-3 keep the state space
	// tractable; yields grow it exponentially).
	Scripts []Script
	// Check validates the quiescent state after each schedule.
	Check func(t Target) error
	// MaxSchedules bounds the search (0 = unlimited).
	MaxSchedules int
}

// ExploreResult reports the search.
type ExploreResult struct {
	Schedules int  // interleavings executed
	Truncated bool // hit MaxSchedules before exhausting the space
}

// threadState is the director's view of one scripted thread.
type threadState struct {
	yielded chan struct{} // thread -> director: reached a yield (or started)
	resume  chan struct{} // director -> thread: run to the next yield
	done    chan struct{} // closed when the script returns (or aborts)
	err     error         // script panic, recovered; read after done closes
}

// exploreAbort is the panic value used to unwind a scripted thread
// during teardown: when one script fails, the director resumes the
// remaining blocked threads with the abort flag set and their hooks
// panic out of the allocator instead of running on.
type exploreAbort struct{}

// Explore runs the search. It returns an error (with the offending
// decision sequence) as soon as any schedule fails its Check.
func Explore(cfg ExploreConfig) (ExploreResult, error) {
	var res ExploreResult
	// decisions[i] = which runnable thread is chosen at choice point i
	// (indices beyond the vector default to 0); alternatives[i] = how
	// many threads were runnable there during the last run.
	var decisions, alternatives []int
	for {
		if cfg.MaxSchedules > 0 && res.Schedules >= cfg.MaxSchedules {
			res.Truncated = true
			return res, nil
		}
		alternatives = alternatives[:0]
		usedChoices, err := runSchedule(cfg, decisions, &alternatives)
		res.Schedules++
		// The effective decision vector of this run: the supplied
		// prefix (clipped) padded with the default 0 picks.
		eff := make([]int, usedChoices)
		copy(eff, decisions)
		if err != nil {
			return res, fmt.Errorf("schedule %v: %w", eff, err)
		}
		// Depth-first advance: bump the deepest choice that still has
		// an untried alternative, truncate below it.
		i := usedChoices - 1
		for i >= 0 && eff[i]+1 >= alternatives[i] {
			i--
		}
		if i < 0 {
			return res, nil // space exhausted
		}
		eff[i]++
		decisions = eff[:i+1]
	}
}

// ExploreRandom samples n uniformly random schedules instead of
// enumerating: the probabilistic fallback for configurations whose
// interleaving space is too large for Explore to exhaust. Each sampled
// schedule is still a deterministic sequential execution.
func ExploreRandom(cfg ExploreConfig, n int, seed int64) (ExploreResult, error) {
	rng := rand.New(rand.NewSource(seed))
	var res ExploreResult
	for i := 0; i < n; i++ {
		// A long random decision vector; positions beyond the actual
		// choice count are simply unused.
		decisions := make([]int, 4096)
		for j := range decisions {
			decisions[j] = rng.Intn(16)
		}
		var alts []int
		used, err := runSchedule(cfg, decisions, &alts)
		res.Schedules++
		if err != nil {
			eff := decisions[:used]
			return res, fmt.Errorf("random schedule (seed %d, sample %d) %v: %w", seed, i, eff, err)
		}
	}
	res.Truncated = true // sampling never proves exhaustion
	return res, nil
}

// runSchedule executes one schedule: follow the decision prefix, then
// first-runnable. It records the number of alternatives at each choice
// point into *alts and returns how many choice points occurred.
func runSchedule(cfg ExploreConfig, decisions []int, alts *[]int) (int, error) {
	t := cfg.NewTarget()
	n := len(cfg.Scripts)
	states := make([]*threadState, n)
	var abort atomic.Bool
	for i, script := range cfg.Scripts {
		st := &threadState{
			yielded: make(chan struct{}),
			resume:  make(chan struct{}),
			done:    make(chan struct{}),
		}
		states[i] = st
		th := t.NewThread(func(int) {
			st.yielded <- struct{}{}
			<-st.resume
			if abort.Load() {
				panic(exploreAbort{})
			}
		})
		go func(script Script) {
			// done must close on every exit path — including a script
			// panic — or the director (and any sibling threads blocked
			// on resume) would hang. A panic is captured as the
			// schedule's error rather than crashing the process.
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(exploreAbort); !ok {
						st.err = fmt.Errorf("script panic: %v", r)
					}
				}
				close(st.done)
			}()
			// Initial yield: no thread runs before the director's
			// first grant.
			st.yielded <- struct{}{}
			<-st.resume
			if abort.Load() {
				panic(exploreAbort{})
			}
			script(th)
		}(script)
		<-st.yielded // wait for the initial yield
	}

	// teardown releases every still-blocked scripted thread: the abort
	// flag makes its next resume panic out of the allocator, and the
	// deferred recover above closes done.
	finished := make([]bool, n)
	teardown := func() {
		abort.Store(true)
		for i, st := range states {
			if finished[i] {
				continue
			}
			st.resume <- struct{}{}
			<-st.done
			finished[i] = true
		}
	}

	running := make([]bool, n) // granted and not yet yielded/done
	choice := 0
	for {
		// Runnable = started/yielded and not finished.
		var runnable []int
		for i := range states {
			if !finished[i] && !running[i] {
				runnable = append(runnable, i)
			}
		}
		if len(runnable) == 0 {
			break
		}
		pick := 0
		*alts = append(*alts, len(runnable))
		if choice < len(decisions) {
			pick = decisions[choice]
			if pick >= len(runnable) {
				pick = len(runnable) - 1
			}
		}
		choice++
		r := runnable[pick]
		running[r] = true
		states[r].resume <- struct{}{}
		select {
		case <-states[r].yielded:
			running[r] = false
		case <-states[r].done:
			running[r] = false
			finished[r] = true
			if err := states[r].err; err != nil {
				teardown()
				return choice, fmt.Errorf("thread %d: %w", r, err)
			}
		}
	}
	// Terminal checks (threads are done). The shadow oracle, when one
	// is attached to the allocator, is consulted first: a double-free
	// or write-after-free detected mid-schedule is more precise than
	// whatever downstream inconsistency Check would report.
	if err := t.ShadowErr(); err != nil {
		return choice, err
	}
	if cfg.Check != nil {
		if err := cfg.Check(t); err != nil {
			return choice, err
		}
	}
	return choice, nil
}
