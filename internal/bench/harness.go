// Package bench implements the six multithreaded allocator benchmarks
// of the paper's evaluation (§4.1): Linux scalability, Threadtest,
// Active-false, Passive-false, Larson, and the lock-free
// Producer-consumer benchmark, all expressed against the common
// alloc.Allocator interface so that every workload runs unmodified on
// the lock-free allocator and on all three baselines.
package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/alloc"
	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// Result is one benchmark measurement.
type Result struct {
	Workload  string `json:"workload"`
	Allocator string `json:"allocator"`
	Threads   int    `json:"threads"`
	// Ops counts the workload's unit of work (malloc/free pairs for
	// Linux scalability and Larson, blocks for Threadtest, tasks for
	// Producer-consumer, ...).
	Ops     uint64        `json:"ops"`
	Elapsed time.Duration `json:"elapsedNS"`
	// MaxLiveBytes is the high-water mark of OS-level memory held
	// during the run (§4.2.5 space efficiency).
	MaxLiveBytes uint64 `json:"maxLiveBytes"`

	// HeldBytes/InUseBytes/ExternalFragRatio are filled only by
	// workloads that measure space with the live set still held
	// (FragChurn): bytes the allocator holds from the OS layer, bytes
	// backing live blocks (prefix included), and 1 - inUse/held — the
	// free-but-unreturnable fraction.
	HeldBytes         uint64  `json:"heldBytes,omitempty"`
	InUseBytes        uint64  `json:"inUseBytes,omitempty"`
	ExternalFragRatio float64 `json:"externalFragRatio,omitempty"`

	// Telemetry summarizes this run's interval of the allocator's
	// telemetry layer (CAS retries, latency quantiles); nil when the
	// allocator has no recorder attached.
	Telemetry *TelemetrySummary `json:"telemetry,omitempty"`

	// Census digests a census taken right after the run, from whichever
	// parts the backend's census has; nil unless a census walker ran
	// beside the workload (Walked).
	Census *census.Summary `json:"census,omitempty"`
	// CensusWalks counts the walks a concurrent census walker completed
	// during the run (Walked).
	CensusWalks int `json:"censusWalks,omitempty"`
}

// TelemetrySummary is the per-run digest of a telemetry snapshot
// delta: enough to print retries-per-op and latency columns next to
// throughput without carrying the full snapshot.
type TelemetrySummary struct {
	TotalRetries  uint64            `json:"totalRetries"`
	RetriesPerOp  float64           `json:"retriesPerOp"`
	RetriesBySite map[string]uint64 `json:"retriesBySite,omitempty"`
	MallocP50NS   uint64            `json:"mallocP50NS"`
	MallocP99NS   uint64            `json:"mallocP99NS"`
	FreeP50NS     uint64            `json:"freeP50NS"`
	FreeP99NS     uint64            `json:"freeP99NS"`

	// Magazine-layer counters for the interval, the lock-free
	// allocator's core.OpStats deltas; all zero when the magazine layer
	// is off.
	MagHits    uint64  `json:"magHits,omitempty"`
	MagMisses  uint64  `json:"magMisses,omitempty"`
	MagHitRate float64 `json:"magHitRate,omitempty"`
	MagFlushes uint64  `json:"magFlushes,omitempty"`
}

// SummarizeTelemetry digests a snapshot and the allocator's operation
// counters, both interval deltas (Snapshot.Sub, core.OpStats taken
// before and after), into the benchmark-row summary.
func SummarizeTelemetry(s telemetry.Snapshot, base, ops core.OpStats) *TelemetrySummary {
	sites := make(map[string]uint64)
	for name, n := range s.Retries {
		if n > 0 {
			sites[name] = n
		}
	}
	tel := &TelemetrySummary{
		TotalRetries:  s.TotalRetries,
		RetriesPerOp:  s.RetriesPerOp(),
		RetriesBySite: sites,
		MallocP50NS:   s.Malloc.P50NS,
		MallocP99NS:   s.Malloc.P99NS,
		FreeP50NS:     s.Free.P50NS,
		FreeP99NS:     s.Free.P99NS,
		MagHits:       ops.MagazineHits - base.MagazineHits,
		MagMisses:     ops.MagazineMisses - base.MagazineMisses,
		MagFlushes:    ops.MagazineFlushes - base.MagazineFlushes,
	}
	if n := tel.MagHits + tel.MagMisses; n > 0 {
		tel.MagHitRate = float64(tel.MagHits) / float64(n)
	}
	return tel
}

// OpsPerSec returns the throughput.
func (r Result) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// SpeedupOver returns this result's throughput relative to a baseline
// measurement (the paper reports speedups over contention-free libc
// malloc).
func (r Result) SpeedupOver(base Result) float64 {
	b := base.OpsPerSec()
	if b == 0 {
		return 0
	}
	return r.OpsPerSec() / b
}

func (r Result) String() string {
	s := fmt.Sprintf("%s/%s t=%d: %d ops in %v (%.0f ops/s, maxlive %d B)",
		r.Workload, r.Allocator, r.Threads, r.Ops, r.Elapsed.Round(time.Millisecond),
		r.OpsPerSec(), r.MaxLiveBytes)
	if tel := r.Telemetry; tel != nil {
		s += fmt.Sprintf(" [%.4f retries/op, malloc p50=%v p99=%v",
			tel.RetriesPerOp, time.Duration(tel.MallocP50NS), time.Duration(tel.MallocP99NS))
		if tel.MagHits+tel.MagMisses > 0 {
			s += fmt.Sprintf(", mag hit %.1f%%", 100*tel.MagHitRate)
		}
		s += "]"
	}
	if c := r.Census; c != nil {
		s += fmt.Sprintf(" [%d walks, ext frag %.1f%%]", r.CensusWalks, c.ExternalFragPct)
	}
	return s
}

// Workload is one of the paper's benchmarks.
type Workload interface {
	Name() string
	// Run executes the workload with the given number of threads and
	// returns the measurement.
	Run(a alloc.Allocator, threads int) Result
}

// Walked runs a workload the way allocmon watches a live heap: on an
// allocator with a census walker of its own structures (the lock-free
// allocator and the buddy), a walker takes a census every 2 ms for as
// long as the workload runs, and the result carries the digest of one
// more taken after it. On any other allocator the workload runs alone.
type Walked struct{ Workload }

func (w Walked) String() string { return fmt.Sprintf("%+v + census walker", w.Workload) }

// Run executes the inner workload, with the walker beside it if the
// allocator has one.
func (w Walked) Run(a alloc.Allocator, threads int) Result {
	h := alloc.HarnessOf(a)
	if len(h.Census().Parts) == 1 { // the OS layer alone: no walker
		return w.Workload.Run(a, threads)
	}
	var stop atomic.Bool
	walked := make(chan int)
	go func() {
		walks := 0
		for ; !stop.Load(); walks++ {
			h.Census()
			time.Sleep(2 * time.Millisecond)
		}
		walked <- walks
	}()
	r := w.Workload.Run(a, threads)
	stop.Store(true)
	r.CensusWalks = <-walked
	s := h.Census().Summary()
	r.Census = &s
	return r
}

// runWorkers starts one goroutine per worker, each with its own Thread
// handle, releases them simultaneously, and returns the wall-clock time
// from release to the last worker's completion. The worker function
// returns its operation count.
func runWorkers(a alloc.Allocator, workers int, fn func(id int, th alloc.Thread) uint64) (uint64, time.Duration) {
	ths := make([]alloc.Thread, workers)
	for i := range ths {
		ths[i] = a.NewThread()
	}
	ops := make([]uint64, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			ops[i] = fn(i, ths[i])
		}(i)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	// Release the handles outside the timed window: on the lock-free
	// allocator this flushes magazine-cached blocks back to their
	// superblocks so runs leave the allocator quiescent and space
	// accounting comparable across configurations.
	for _, th := range ths {
		if u, ok := th.(alloc.Unregisterer); ok {
			u.Unregister()
		}
	}
	var total uint64
	for _, n := range ops {
		total += n
	}
	return total, elapsed
}

// measure wraps runWorkers with max-live-space tracking. It raises
// GOMAXPROCS to the worker count for the duration of the run: on
// machines with fewer cores than workers this makes kernel preemption
// of lock holders real — the preemption-tolerance scenario of §1 —
// instead of letting the cooperative scheduler serialize the workers.
func measure(w Workload, a alloc.Allocator, threads int, fn func(id int, th alloc.Thread) uint64) Result {
	if prev := runtime.GOMAXPROCS(0); threads > prev {
		runtime.GOMAXPROCS(threads)
		defer runtime.GOMAXPROCS(prev)
	}
	h := alloc.HarnessOf(a)
	rec := h.Recorder()
	var base telemetry.Snapshot
	var baseOps core.OpStats
	ca, isCore := a.(alloc.CoreAccessor)
	if rec != nil {
		base = rec.Snapshot()
		if isCore {
			baseOps = ca.Core().Stats().Ops
		}
	}
	a.Heap().ResetMaxLive()
	ops, elapsed := runWorkers(a, threads, fn)
	r := Result{
		Workload:     w.Name(),
		Allocator:    a.Name(),
		Threads:      threads,
		Ops:          ops,
		Elapsed:      elapsed,
		MaxLiveBytes: a.Heap().Stats().MaxLiveWords * 8,
	}
	if rec != nil {
		var afterOps core.OpStats
		if isCore {
			afterOps = ca.Core().Stats().Ops
		}
		r.Telemetry = SummarizeTelemetry(rec.Snapshot().Sub(base), baseOps, afterOps)
	}
	return r
}
