// Command mlfstress hammers the lock-free allocator with concurrent
// random malloc/free traffic (optionally with fault injection: threads
// killed mid-operation) and then validates the structural invariants
// of every superblock descriptor. Exit status is non-zero on any
// corruption or blocked progress.
//
//	mlfstress [-alloc lockfree] [-threads 8] [-ops 200000] [-kills 0]
//	          [-hyper] [-lifo] [-credits 64] [-seed 1] [-telemetry]
//	          [-events 16] [-magazine 0] [-arenas 0] [-descstripes 0]
//	          [-descalgo freelist|consttime] [-shadow]
//
// -alloc selects the backend under stress from the registry of package
// alloc (default lockfree, the paper's allocator, with the full knob
// set below). Any other registered backend runs the same churn through
// the generic interface; -shadow attaches the oracle the same way.
// Fault injection (-kills) is supported for lockfree and buddy — the
// two allocators with hookable kill points.
//
// With -telemetry, the lock-free observability layer is attached: the
// run ends with a contention/latency summary, and in fault-injection
// mode (-kills) the flight recorder's tail is dumped, showing the
// events leading up to each kill.
//
// With -shadow (requires building with -tags shadowheap), every
// malloc/free is mirrored into a shadow-heap oracle that detects
// double-free, invalid free, overlapping live blocks, and
// write-after-free via poison-on-free; the first violation aborts the
// run with the offending pointer, the allocating and freeing thread
// ids, and the flight recorder's tail.
//
// A contradictory or out-of-range knob (core.Config.Validate) exits
// non-zero with the reason before any traffic runs.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/alloc"
	"repro/internal/bench"
	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/shadow"
	"repro/internal/sizeclass"
	"repro/internal/telemetry"
)

func main() {
	var (
		threads = flag.Int("threads", 8, "worker goroutines")
		ops     = flag.Int("ops", 200000, "operations per worker")
		kills   = flag.Int("kills", 0, "threads killed mid-operation (fault injection)")
		hyper   = flag.Bool("hyper", false, "enable the hyperblock layer")
		lifo    = flag.Bool("lifo", false, "LIFO partial lists")
		credits = flag.Int("credits", 0, "MAXCREDITS (default 64)")
		seed    = flag.Int64("seed", 1, "PRNG seed")
		tele    = flag.Bool("telemetry", true, "attach the telemetry layer (contention/latency summary, flight recorder)")
		events  = flag.Int("events", 16, "flight-recorder events to dump (telemetry mode)")
		name    = flag.String("alloc", "lockfree", "allocator backend under stress (see alloc.Names())")
		af      = bench.RegisterAllocFlags(flag.CommandLine)
		shadowF = flag.Bool("shadow", false, "attach the shadow-heap oracle (needs -tags shadowheap); first violation aborts the run")
	)
	flag.Parse()

	cfg, err := af.Apply(core.Config{
		Processors:  *threads,
		MaxCredits:  *credits,
		PartialLIFO: *lifo,
		Hyperblocks: *hyper,
	})
	if err != nil {
		fail("%v", err)
	}

	if *threads > runtime.GOMAXPROCS(0) {
		runtime.GOMAXPROCS(*threads)
	}
	if *shadowF && !shadow.Enabled {
		fmt.Fprintln(os.Stderr, "mlfstress: warning: -shadow requested but the binary was built without -tags shadowheap; the oracle is compiled out")
	}

	if *name != "lockfree" {
		runBackendStress(*name, *threads, *ops, *kills, *seed, *tele, *events, *shadowF)
		return
	}

	if *kills > 0 {
		runKillStress(*kills, *threads, *ops, *seed, *tele, *events, cfg, *shadowF)
		return
	}

	if *tele {
		cfg.Telemetry = core.NewRecorder(telemetry.Config{})
	}
	if *shadowF {
		// No OnViolation handler: the first violation panics with the
		// attribution line and the flight recorder's tail.
		cfg.Shadow = shadow.New(shadow.Config{
			Name:          "lockfree",
			VerifyOnReuse: true,
			Telemetry:     cfg.Telemetry,
			DumpEvents:    *events,
		})
	}
	a := core.New(cfg)
	fmt.Printf("mlfstress: %d threads x %d ops (hyper=%v lifo=%v credits=%d magazine=%d arenas=%d descstripes=%d descalgo=%s shadow=%v)\n",
		*threads, *ops, *hyper, *lifo, cfg.MaxCredits, cfg.MagazineSize, cfg.HeapConfig.Arenas,
		cfg.DescStripes, cfg.DescAlgo, *shadowF && shadow.Enabled)

	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < *threads; g++ {
		wg.Add(1)
		go func(s int64) {
			defer wg.Done()
			th := a.Thread()
			rng := rand.New(rand.NewSource(s))
			var held []mem.Ptr
			for i := 0; i < *ops; i++ {
				if len(held) > 0 && (rng.Intn(2) == 0 || len(held) > 128) {
					k := rng.Intn(len(held))
					th.Free(held[k])
					held[k] = held[len(held)-1]
					held = held[:len(held)-1]
					continue
				}
				sz := uint64(8 << rng.Intn(9))
				if rng.Intn(100) == 0 {
					sz = 4096 + uint64(rng.Intn(16384))
				}
				p, err := th.Malloc(sz)
				if err != nil {
					fail("malloc(%d): %v", sz, err)
				}
				held = append(held, p)
			}
			for _, p := range held {
				th.Free(p)
			}
			// Return any magazine-cached blocks to the shared structures
			// so the post-run leak bound sees a quiescent heap.
			th.Unregister()
		}(*seed + int64(g))
	}
	wg.Wait()
	elapsed := time.Since(start)

	s := a.Stats()
	fmt.Printf("done in %v: %d mallocs (%.0f ops/s), %d frees\n",
		elapsed.Round(time.Millisecond), s.Ops.Mallocs,
		float64(s.Ops.Mallocs+s.Ops.Frees)/elapsed.Seconds(), s.Ops.Frees)
	fmt.Printf("paths: active=%d partial=%d newSB=%d raceLoss=%d sbFreed=%d\n",
		s.Ops.FromActive, s.Ops.FromPartial, s.Ops.FromNewSB,
		s.Ops.NewSBRaceLoss, s.Ops.EmptySBFreed)
	fmt.Printf("descriptors: %d allocated, %d on freelist; heap max-live %d KiB\n",
		s.DescsAllocated, s.DescsOnFreelist, s.Heap.MaxLiveWords*8/1024)
	if *hyper {
		hs := a.HyperStats()
		fmt.Printf("hyperblocks: %d allocated, %d released, scavenged %d now\n",
			hs.HyperAllocs, hs.HyperReleases, a.Scavenge())
	}
	if rec := a.Telemetry(); rec != nil && *tele {
		fmt.Println()
		fmt.Print(rec.Snapshot().Text(0))
	}

	if o := a.ShadowOracle(); o != nil {
		if err := o.Err(); err != nil {
			fail("shadow oracle: %v", err)
		}
		fmt.Printf("shadow oracle: %d violations, %d blocks still modeled live\n",
			len(o.Violations()), o.LiveBlocks())
	}

	if s.Ops.Mallocs != s.Ops.Frees {
		fail("malloc/free imbalance: %d vs %d", s.Ops.Mallocs, s.Ops.Frees)
	}
	if err := a.CheckInvariants(0); err != nil {
		fail("invariant violation: %v", err)
	}
	// After all frees the allocator legitimately retains cached
	// superblocks: at most the Active and Partial superblock of every
	// processor heap (the paper's "each processor heap holds at most
	// two superblocks"), plus one partially-bumped hyperblock.
	live := a.Heap().Stats().LiveWords
	bound := uint64(sizeclass.NumClasses()) * uint64(*threads) * 2 * sizeclass.SuperblockWords
	if *hyper {
		bound += 64 * sizeclass.SuperblockWords
	}
	if live > bound {
		fail("leak: %d words live after all frees (retention bound %d)", live, bound)
	}
	fmt.Printf("invariants OK; retained superblock cache %d KiB (bound %d KiB)\n",
		live*8/1024, bound*8/1024)
}

// runBackendStress stresses a non-default backend through the generic
// alloc interface: same churn shape as the lock-free path, shadow
// oracle via Options.Shadow, and (for buddy) telemetry, fault
// injection via sched.RunBuddy, and a post-run invariant/coalescing
// check.
func runBackendStress(name string, threads, ops, kills int, seed int64, tele bool, events int, useShadow bool) {
	var rec *telemetry.Recorder
	if tele {
		rec = core.NewRecorder(telemetry.Config{})
	}

	if kills > 0 {
		if name != "buddy" {
			fail("-kills requires -alloc lockfree or buddy (no kill points in %q)", name)
		}
		fmt.Printf("mlfstress: fault injection — %d kills, %d survivors x %d ops (alloc=%s shadow=%v)\n",
			kills, threads, ops, name, useShadow && shadow.Enabled)
		plan := sched.BuddyPlan{
			Victims:        kills,
			Survivors:      threads,
			OpsPerSurvivor: ops,
			OpsBeforeKill:  200,
			Seed:           seed,
			Point:          -1,
			Shadow:         useShadow,
		}
		if rec != nil {
			plan.Telemetry = rec.Stripes()
		}
		res, err := sched.RunBuddy(plan)
		if rec != nil {
			fmt.Println()
			fmt.Print(rec.Snapshot().Text(events))
		}
		if err != nil {
			fail("survivors blocked: %v", err)
		}
		fmt.Printf("%v\n", res)
		if res.InvariantErr != nil {
			fail("invariant violation after kills: %v", res.InvariantErr)
		}
		if res.ShadowErr != nil {
			fail("shadow oracle after kills: %v", res.ShadowErr)
		}
		if res.ProbeErr != nil {
			fail("functional probe after kills: %v", res.ProbeErr)
		}
		fmt.Println("survivors made full progress; structure intact (bounded leak only)")
		return
	}

	a, err := alloc.New(name, alloc.Options{Processors: threads, Shadow: useShadow})
	if err != nil {
		fail("%v", err)
	}
	bud := alloc.BuddyFrom(a)
	if bud != nil && rec != nil {
		bud.SetTelemetry(rec.Stripes())
	}
	fmt.Printf("mlfstress: %d threads x %d ops (alloc=%s shadow=%v)\n",
		threads, ops, name, useShadow && shadow.Enabled)

	start := time.Now()
	var wg sync.WaitGroup
	var mallocs, frees atomic.Uint64
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(s int64) {
			defer wg.Done()
			th := a.NewThread()
			rng := rand.New(rand.NewSource(s))
			var held []mem.Ptr
			for i := 0; i < ops; i++ {
				if len(held) > 0 && (rng.Intn(2) == 0 || len(held) > 128) {
					k := rng.Intn(len(held))
					th.Free(held[k])
					held[k] = held[len(held)-1]
					held = held[:len(held)-1]
					frees.Add(1)
					continue
				}
				sz := uint64(8 << rng.Intn(9))
				if rng.Intn(100) == 0 {
					sz = 4096 + uint64(rng.Intn(16384))
				}
				p, err := th.Malloc(sz)
				if err != nil {
					fail("malloc(%d): %v", sz, err)
				}
				held = append(held, p)
				mallocs.Add(1)
			}
			for _, p := range held {
				th.Free(p)
				frees.Add(1)
			}
			if u, ok := th.(alloc.Unregisterer); ok {
				u.Unregister()
			}
		}(seed + int64(g))
	}
	wg.Wait()
	elapsed := time.Since(start)

	m, f := mallocs.Load(), frees.Load()
	fmt.Printf("done in %v: %d mallocs (%.0f ops/s), %d frees\n",
		elapsed.Round(time.Millisecond), m, float64(m+f)/elapsed.Seconds(), f)
	if m != f {
		fail("malloc/free imbalance: %d vs %d", m, f)
	}

	if bud != nil {
		bs := bud.Stats()
		fmt.Printf("buddy: %d trees x %d words, %d grows (%d lost races), %d hint hits, %d scans, %d/%d beyond-tree\n",
			bs.Trees, bs.TreeWords, bs.Grows, bs.GrowRaces, bs.HintHits, bs.Scans,
			bs.LargeMallocs, bs.LargeFrees)
		if err := bud.CheckInvariants(true); err != nil {
			fail("buddy invariant violation: %v", err)
		}
		bc := census.TakeBuddy(bud)
		if bc.CoalBits != 0 {
			fail("buddy: %d coalescing marks stranded at quiescence", bc.CoalBits)
		}
		if bc.ExternalFragRatio != 0 {
			fail("buddy: external frag %.3f after full drain, want 0 (coalescing incomplete)", bc.ExternalFragRatio)
		}
		fmt.Println("buddy invariants OK; forest fully coalesced")
	}
	if rec != nil {
		fmt.Println()
		fmt.Print(rec.Snapshot().Text(0))
	}
	if sa, ok := a.(alloc.ShadowAccessor); ok {
		if o := sa.ShadowOracle(); o != nil {
			if err := o.Err(); err != nil {
				fail("shadow oracle: %v", err)
			}
			fmt.Printf("shadow oracle: %d violations, %d blocks still modeled live\n",
				len(o.Violations()), o.LiveBlocks())
		}
	}
}

// runKillStress runs sched's kill harness with the allocator shape of
// cfg (the knobs sched.Plan carries; -hyper, -lifo and -credits do not
// apply in kill mode).
func runKillStress(kills, threads, ops int, seed int64, tele bool, events int, cfg core.Config, useShadow bool) {
	fmt.Printf("mlfstress: fault injection — %d kills, %d survivors x %d ops (magazine=%d arenas=%d descstripes=%d descalgo=%s shadow=%v)\n",
		kills, threads, ops, cfg.MagazineSize, cfg.HeapConfig.Arenas, cfg.DescStripes,
		cfg.DescAlgo, useShadow && shadow.Enabled)
	var rec *telemetry.Recorder
	if tele {
		rec = core.NewRecorder(telemetry.Config{})
	}
	res, err := sched.Run(sched.Plan{
		Victims:        kills,
		Survivors:      threads,
		OpsPerSurvivor: ops,
		OpsBeforeKill:  200,
		Seed:           seed,
		Point:          -1,
		Magazine:       cfg.MagazineSize,
		Arenas:         cfg.HeapConfig.Arenas,
		DescStripes:    cfg.DescStripes,
		DescAlgo:       cfg.DescAlgo,
		Telemetry:      rec,
		Shadow:         useShadow,
	})
	if rec != nil {
		// Dump even when survivors blocked: the flight recorder's tail
		// is the post-mortem, showing each victim's final hook firings.
		fmt.Println()
		fmt.Print(rec.Snapshot().Text(events))
	}
	if err != nil {
		fail("survivors blocked: %v", err)
	}
	fmt.Printf("%v\n", res)
	if res.InvariantErr != nil {
		fail("invariant violation after kills: %v", res.InvariantErr)
	}
	if res.ShadowErr != nil {
		fail("shadow oracle after kills: %v", res.ShadowErr)
	}
	fmt.Println("survivors made full progress; structure intact (bounded leak only)")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mlfstress: FAIL: "+format+"\n", args...)
	os.Exit(1)
}
