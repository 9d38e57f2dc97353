// Command mlfstress hammers an allocator with concurrent random
// malloc/free traffic (optionally with fault injection: threads killed
// mid-operation) and then runs the backend's own structural check.
// Exit status is non-zero on any corruption or blocked progress.
//
//	mlfstress [-alloc lockfree] [-threads 8] [-ops 200000] [-kills 0]
//	          [-hyper] [-lifo] [-credits 64] [-seed 1] [-telemetry]
//	          [-magazine 0] [-shadow]
//
// -alloc selects the backend under stress from the registry of package
// alloc (default lockfree, the paper's allocator). Every backend is
// built by alloc.New and driven by the same churn (internal/churn), in
// both modes; -hyper, -lifo, -credits and the -magazine shape flag
// configure the lock-free allocator and are ignored by the others.
//
// Fault injection (-kills N) runs sched.Run against the allocator as
// configured — every flag above applies, the banner prints the shape
// under test — and needs a backend whose registry entry has hook
// points (lockfree, buddy); for any other it exits non-zero saying so.
//
// With -telemetry, the observability layer is attached: the run ends
// with a contention/latency summary, in both modes. Where each kill
// struck is in the sweep's own report (sched.Result, "kills=").
//
// Either way the run ends with the backend's census (alloc.Harness.Census)
// taken after every surviving block was freed: the OS layer for every
// backend; for lockfree its path counters, superblock inventory and
// descriptor pool; for buddy the per-order table. allocmon prints the
// same census while a workload runs.
//
// With -shadow every malloc/free, of whichever backend, is mirrored
// into a shadow-heap oracle that detects double-free, invalid free,
// overlapping live blocks, and write-after-free via poison-on-free
// (where the registry entry allows it); the first violation aborts the
// run with the offending pointer and the allocating and freeing thread
// ids. (Under -kills violations are collected and reported after the
// sweep.)
//
// A contradictory or out-of-range knob (core.Config.Validate), and
// -threads or -ops below 1, exit non-zero with the reason before any
// traffic runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/alloc"
	"repro/internal/bench"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/shadow"
	"repro/internal/sizeclass"
	"repro/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// newThread is how the plain churn obtains its worker handles; the test
// of -shadow substitutes handles that free a block twice.
var newThread = func(a alloc.Allocator) alloc.Thread { return a.NewThread() }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mlfstress", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		threads = fs.Int("threads", 8, "worker goroutines")
		ops     = fs.Int("ops", 200000, "operations per worker")
		kills   = fs.Int("kills", 0, "threads killed mid-operation (fault injection)")
		hyper   = fs.Bool("hyper", false, "enable the hyperblock layer")
		lifo    = fs.Bool("lifo", false, "LIFO partial lists")
		credits = fs.Int("credits", 0, "MAXCREDITS (default 64)")
		seed    = fs.Int64("seed", 1, "PRNG seed")
		tele    = fs.Bool("telemetry", true, "attach the telemetry layer (contention/latency summary)")
		af      = bench.RegisterBackendFlags(fs)
		shadowF = fs.Bool("shadow", false, "attach the shadow-heap oracle; first violation aborts the run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "mlfstress: FAIL: "+format+"\n", args...)
		return 1
	}

	if *threads < 1 || *ops < 1 {
		return fail("-threads and -ops must be at least 1, got %d and %d", *threads, *ops)
	}
	if *threads > runtime.GOMAXPROCS(0) {
		runtime.GOMAXPROCS(*threads)
	}
	var rec *telemetry.Recorder
	if *tele {
		rec = core.NewRecorder(telemetry.Config{})
	}
	// Without an OnViolation handler the first violation panics with its
	// attribution line. A kill sweep collects instead: its victims unwind
	// by panicking.
	var oracle shadow.Config
	if *kills > 0 {
		oracle.OnViolation = func(shadow.Violation) {}
	}
	a, cfg, err := af.New(core.Config{
		Processors:  *threads,
		MaxCredits:  *credits,
		PartialLIFO: *lifo,
		Hyperblocks: *hyper,
		Telemetry:   rec,
	}, alloc.Options{Shadow: *shadowF, ShadowConfig: oracle})
	if err != nil {
		return fail("%v", err)
	}
	h := alloc.HarnessOf(a)
	if o := h.Oracle(); o != nil {
		defer o.Close()
	}

	shape := fmt.Sprintf("alloc=%s shadow=%v", a.Name(), *shadowF)
	// By the registry entry's name, which the oracle wrapper keeps: a
	// type assertion on a would miss the lock-free allocator behind it.
	lockFree := a.Name() == "lockfree"
	if lockFree {
		shape += fmt.Sprintf(" hyper=%v lifo=%v credits=%d magazine=%d",
			cfg.Hyperblocks, cfg.PartialLIFO, cfg.MaxCredits, cfg.MagazineSize)
	}

	var rep alloc.Report
	var shadowErr error
	if *kills > 0 {
		if len(h.HookPoints()) == 0 {
			return fail("-kills needs a backend with kill points; %s has none (a thread killed inside it dies holding a lock)", a.Name())
		}
		fmt.Fprintf(stdout, "mlfstress: fault injection — %d kills, %d survivors x %d ops (%s)\n", *kills, *threads, *ops, shape)
		res, err := sched.Run(sched.Plan{
			Victims:        *kills,
			Survivors:      *threads,
			OpsPerSurvivor: *ops,
			OpsBeforeKill:  200,
			Seed:           *seed,
			Point:          -1,
		}, h)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "%v\n", res)
		rep, shadowErr = res.Report, res.ShadowErr
	} else {
		fmt.Fprintf(stdout, "mlfstress: %d threads x %d ops (%s)\n", *threads, *ops, shape)
		start := time.Now()
		mallocs, frees, err := churn.Run(*threads, *ops, *seed, churn.Mixed, func() alloc.Thread { return newThread(a) })
		elapsed := time.Since(start)
		if err != nil {
			return fail("malloc: %v", err)
		}
		fmt.Fprintf(stdout, "done in %v: %d mallocs (%.0f ops/s), %d frees\n",
			elapsed.Round(time.Millisecond), mallocs, float64(mallocs+frees)/elapsed.Seconds(), frees)
		shadowErr = h.ShadowErr()
		rep = h.Inspect(0)
	}
	if rec != nil {
		fmt.Fprintf(stdout, "\n%s", rec.Snapshot().Text())
	}
	// The backend's counters and inventory as the run left them, every
	// surviving block freed: what it retains, and what the kills cost.
	fmt.Fprintln(stdout)
	h.Census().WriteText(stdout)
	fmt.Fprintln(stdout)

	if shadowErr != nil {
		return fail("shadow oracle: %v", shadowErr)
	}
	if rep.InvariantErr != nil {
		return fail("invariant violation: %v", rep.InvariantErr)
	}
	if rep.ProbeErr != nil {
		return fail("functional probe after kills: %v", rep.ProbeErr)
	}
	if *kills > 0 {
		fmt.Fprintln(stdout, "survivors made full progress; structure intact (bounded leak only)")
		return 0
	}
	if lockFree {
		// After all frees the allocator legitimately retains cached
		// superblocks: at most the Active and Partial superblock of every
		// processor heap (the paper's "each processor heap holds at most
		// two superblocks"), plus one partially-bumped hyperblock.
		bound := uint64(sizeclass.NumClasses()) * uint64(*threads) * 2 * sizeclass.SuperblockWords
		if cfg.Hyperblocks {
			bound += 64 * sizeclass.SuperblockWords
		}
		if rep.LeakedWords > bound {
			return fail("leak: %d words live after all frees (retention bound %d)", rep.LeakedWords, bound)
		}
		fmt.Fprintf(stdout, "retained superblock cache %d KiB (bound %d KiB)\n", rep.LeakedWords*8/1024, bound*8/1024)
	}
	fmt.Fprintln(stdout, "invariants OK")
	return 0
}
