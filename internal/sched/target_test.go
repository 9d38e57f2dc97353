package sched

import (
	"math/bits"
	"os"
	"runtime/debug"
	"testing"

	"repro/alloc"
	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/shadow"
	"repro/internal/telemetry"
)

// Every Run and every explored schedule builds a fresh allocator,
// thousands of times over on a live heap of a few MB. At the default pacing the collector then runs every
// other schedule and takes a third of the package's CPU time.
func TestMain(m *testing.M) {
	debug.SetGCPercent(400)
	os.Exit(m.Run())
}

// sweepHeap is the address space of the kill sweeps: small segments, for
// which the OS layer asks for no huge pages, so a run's scattered regions
// commit only the pages they touch.
var sweepHeap = mem.Config{SegmentWordsLog2: 18, TotalWordsLog2: 28}

// collecting is the oracle configuration of every target here: an empty
// OnViolation suppresses the default panic; violations accumulate and
// surface through Target.ShadowErr.
var collecting = shadow.Config{OnViolation: func(shadow.Violation) {}}

// lockFree builds a target around a lock-free allocator of shape cfg:
// four processor heaps on sweepHeap unless cfg says otherwise, and with
// oracle behind a collecting shadow oracle.
func lockFree(cfg core.Config, oracle bool) Target {
	if cfg.Processors == 0 {
		cfg.Processors = 4
	}
	if cfg.HeapConfig == (mem.Config{}) {
		cfg.HeapConfig = sweepHeap
	}
	return alloc.HarnessOf(alloc.NewLockFree(alloc.Options{
		HeapConfig:   cfg.HeapConfig,
		LockFree:     cfg,
		Shadow:       oracle,
		ShadowConfig: collecting,
	}))
}

// buddyHeap is sweepHeap with 2^12-word segments. The buddy clamps its
// trees to the segment, and small trees put every operation's
// coalescing path through the same few ancestors, maximizing
// interleaving with the kills. No request of a sweep outgrows a tree.
var buddyHeap = mem.Config{SegmentWordsLog2: 12, TotalWordsLog2: 28}

// buddyTarget builds a target around the registry's buddy backend on
// buddyHeap, counting CAS retries into a recorder's stripes if recorded,
// and returns it with the depth of its trees.
func buddyTarget(recorded, oracle bool) (Target, int) {
	opt := alloc.Options{HeapConfig: buddyHeap, Shadow: oracle, ShadowConfig: collecting}
	if recorded {
		opt.LockFree.Telemetry = core.NewRecorder(telemetry.Config{})
	}
	a, err := alloc.New("buddy", opt)
	if err != nil {
		panic(err)
	}
	h := alloc.HarnessOf(a)
	st := h.Census().Parts[0].(*census.Buddy).Stats
	return h, bits.Len64(st.TreeWords/st.MinBlockWords) - 1
}

// kills sums the kills that fired.
func kills(res Result) int {
	n := 0
	for _, k := range res.Kills {
		n += k
	}
	return n
}

// sweepLockFree kills two victims at each lock-free hook point in turn
// on the shape cfg and requires the two survivors to finish: the
// paper's kill-tolerance claim, point by point. Subtests are named
// prefix + the point's name. It returns the kills that fired, by point
// name.
func sweepLockFree(t *testing.T, prefix string, ops int, seed func(p int64) int64, cfg core.Config) map[string]int {
	return sweepLockFreePlan(t, prefix, Plan{OpsPerSurvivor: ops}, seed, cfg)
}

// sweepLockFreePlan is sweepLockFree with the traffic of base: its
// survivor quota and its large requests.
func sweepLockFreePlan(t *testing.T, prefix string, base Plan, seed func(p int64) int64, cfg core.Config) map[string]int {
	ops := base.OpsPerSurvivor
	fired := map[string]int{}
	for p := core.HookPoint(0); p < core.NumHookPoints; p++ {
		t.Run(prefix+p.String(), func(t *testing.T) {
			plan := base
			plan.Victims, plan.Survivors, plan.OpsBeforeKill = 2, 2, 50
			plan.Seed, plan.Point = seed(int64(p)), int(p)
			res, err := Run(plan, lockFree(cfg, false))
			if err != nil {
				t.Fatalf("survivors blocked: %v", err)
			}
			if res.SurvivorOps != uint64(2*ops) {
				t.Errorf("survivor ops = %d", res.SurvivorOps)
			}
			if res.InvariantErr != nil {
				t.Errorf("structure corrupted: %v", res.InvariantErr)
			}
			for name, n := range res.Kills {
				fired[name] += n
			}
		})
	}
	return fired
}
