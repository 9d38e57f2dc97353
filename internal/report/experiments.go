package report

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/alloc"
	"repro/internal/bench"
	"repro/internal/core"
)

// RunConfig controls an experiment run.
type RunConfig struct {
	// Threads is the list of thread counts for sweeps (the paper
	// sweeps 1..16 processors).
	Threads []int
	// Scale multiplies the paper's iteration counts and durations.
	// 1.0 reproduces the paper's parameters; the default quick scale
	// (0.01) finishes each experiment in seconds.
	Scale float64
	// Allocators to include; nil selects all six (alloc.Names).
	Allocators []string
	// Options is what every allocator constructed for an experiment is
	// built from, whichever backend it is: each reads what it
	// understands (all of them Processors and HeapConfig, the
	// lock-free allocator its LockFree shape — magazines and descriptor
	// backend). Processors 0 uses the maximum of Threads.
	// An experiment's variants are edits of a copy.
	Options alloc.Options
	// Telemetry attaches a fresh telemetry recorder to every allocator
	// constructed for an experiment (the lock-free allocator and the
	// buddy count into it), so each printed result carries CAS
	// retries/op and latency quantiles for its interval.
	Telemetry bool
	// Record, when non-nil, receives every individual measurement as
	// it is taken (used for machine-readable output, e.g. benchmal
	// -json).
	Record func(bench.Result)
}

func (c RunConfig) withDefaults() RunConfig {
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 2, 4, 8, 16}
	}
	if len(c.Allocators) == 0 {
		c.Allocators = alloc.Names()
	}
	c.Scale = cmp.Or(c.Scale, 0.01)
	c.Options.Processors = cmp.Or(c.Options.Processors, slices.Max(c.Threads))
	return c
}

func (c RunConfig) scaleInt(full int) int {
	return max(int(float64(full)*c.Scale), 1)
}

func (c RunConfig) scaleDur(full time.Duration) time.Duration {
	return max(time.Duration(float64(full)*c.Scale), 100*time.Millisecond)
}

// Experiment regenerates one table or figure of the paper: a spec
// resolved for one run configuration.
type Experiment struct {
	ID    string
	Title string
	Paper string // what the paper reports, for side-by-side comparison
	cfg   RunConfig
	spec  spec
}

// Run measures the experiment and prints it to out.
func (e Experiment) Run(out io.Writer) error { return run(e.cfg, e.spec, out) }

// named gives a workload the row label the paper's table uses.
type named struct {
	bench.Workload
	name string
}

func (w named) Name() string   { return w.name }
func (w named) String() string { return fmt.Sprintf("%+v", w.Workload) }

// table1P3 holds Table 1's POWER3 column: New/Hoard/Ptmalloc.
var table1P3 = map[string]string{
	"Linux scalability": "2.25/1.11/1.83",
	"Threadtest":        "2.18/1.20/1.94",
	"Larson":            "2.90/2.22/2.53",
}

// Experiments returns all experiments in paper order, as cfg (defaults
// filled in) shapes them: its scale sizes the workloads, its thread
// list and processor count the variants.
func Experiments(cfg RunConfig) []Experiment {
	c := cfg.withDefaults()
	procs := c.Options.Processors
	one, most := []int{1}, c.Threads[len(c.Threads)-1:]

	// The workloads at the paper's parameters times c.Scale.
	type loads = []bench.Workload
	var (
		linux = bench.LinuxScalability{Pairs: c.scaleInt(10_000_000), Size: 8}
		// Below one full iteration the scale shrinks the iteration
		// instead: scale x the paper's 10 M blocks per thread, in rounds
		// of at most 100,000.
		threadtest = bench.Threadtest{Iterations: c.scaleInt(100), BlocksPerIter: min(c.scaleInt(10_000_000), 100_000), Size: 8}
		// The paper's 10,000 pairs run in microseconds on this substrate;
		// a floor keeps the measurement above timer noise at small scales.
		falsePairs   = max(c.scaleInt(10_000), 5_000)
		activeFalse  = bench.ActiveFalse{Pairs: falsePairs, WritesPerWord: 1000, Size: 8}
		passiveFalse = bench.PassiveFalse{Pairs: falsePairs, WritesPerWord: 1000, Size: 8}
		larson       = bench.Larson{Duration: c.scaleDur(30 * time.Second), BlocksPerThread: 1024, MinSize: 16, MaxSize: 80}
		// Log-uniform 16 B..8 KiB requests span ten buddy orders and every
		// lock-free size class; timed like Larson, so a cell lasts long
		// enough to order the allocators by ops/s.
		fragChurn = bench.FragChurn{Duration: c.scaleDur(30 * time.Second), Slots: 256, MinSize: 16, MaxSize: 8192}
		prodcons  = func(work int) bench.Workload {
			return bench.ProducerConsumer{Duration: c.scaleDur(30 * time.Second), Work: work, DBSize: 1 << 20}
		}
	)

	// The three allocators of the paper's Table 1 and §4.2.5, in its order.
	paperSubjects := []subject{{name: "lockfree"}, {name: "hoard"}, {name: "ptmalloc"}}
	lockfree := func(label string, edit func(*core.Config)) subject {
		return subject{name: "lockfree", label: label, edit: func(o *alloc.Options) { edit(&o.LockFree) }}
	}
	// sweep is an A/B experiment over one knob of the lock-free
	// allocator: every variant on every workload at the most threads.
	// With counter columns every row carries them from the same kind of
	// run — the acceptance comparison for the knob.
	sweep := func(title string, variants []subject, workloads loads, counters []column, notes ...string) spec {
		columns := append(append([]column{opsColumn}, counters...), maxLiveColumn)
		return spec{layout: bySubject, title: title, head: "variant", subjects: variants, workloads: workloads,
			threads: most, telemetry: len(counters) > 0, columns: columns, notes: notes}
	}

	exps := []Experiment{{
		ID:    "table1",
		Title: "Table 1: contention-free speedup over libc (serial) malloc",
		Paper: "POWER3/POWER4 — Linux-scalability: New 2.25/2.75 Hoard 1.11/1.38 Ptmalloc 1.83/1.92; Threadtest: 2.18/2.35 1.20/1.23 1.94/1.97; Larson: 2.90/2.95 2.22/2.37 2.53/2.67",
		spec: spec{
			layout: byWorkload, title: "Table 1: contention-free speedup over serial (libc stand-in), 1 thread", head: "benchmark",
			subjects:  paperSubjects,
			workloads: loads{named{linux, "Linux scalability"}, named{threadtest, "Threadtest"}, named{larson, "Larson"}},
			threads:   one, ref: libc, columns: []column{speedupColumn},
			last: &rowColumn{"paper(P3): new/hoard/pt", func(w bench.Workload, _ map[string]float64) string { return table1P3[w.Name()] }},
			notes: []string{
				"paper columns are the POWER3 values from Table 1",
				"absolute ratios depend on the simulated heap's constant factors; the ordering lockfree > ptmalloc > hoard is the reproduction target",
			},
		},
	}}
	// Figure 8: every selected allocator over the thread counts, as
	// speedup over contention-free libc.
	for _, panel := range []struct {
		id, title, paper string
		w                bench.Workload
	}{
		{"fig8a", "Linux scalability", "New, Hoard, Ptmalloc scale with slopes ~ contention-free latency; libc collapses (0.4 at 2 procs, 331x slower than New at 16)", linux},
		{"fig8b", "Threadtest", "New and Hoard scale per latency; Ptmalloc scales at a lower rate under high contention", threadtest},
		{"fig8c", "Active false sharing", "New and Hoard avoid inducing false sharing; Ptmalloc and libc suffer", activeFalse},
		{"fig8d", "Passive false sharing", "same shape as 8(c)", passiveFalse},
		{"fig8e", "Larson", "New and Hoard scale; Ptmalloc does not (arena thrashing, 22 arenas for 16 threads)", larson},
		{"fig8f", "Producer-consumer, work=500", "New scales to 13 procs (then the benchmark itself saturates); Hoard suffers contention on the producer's heap", prodcons(500)},
		{"fig8g", "Producer-consumer, work=750", "New scales perfectly; others below", prodcons(750)},
		{"fig8h", "Producer-consumer, work=1000", "New scales perfectly; others below", prodcons(1000)},
	} {
		exps = append(exps, Experiment{
			ID:    panel.id,
			Title: fmt.Sprintf("Figure 8(%s): %s — speedup over contention-free serial", panel.id[4:], panel.title),
			Paper: panel.paper,
			spec: spec{layout: overThreads, title: panel.w.Name(), workloads: loads{panel.w},
				threads: c.Threads, ref: libc, columns: []column{speedupColumn}},
		})
	}

	latency := []column{{name: "ns/pair", value: func(r, _ bench.Result) float64 { return float64(r.Elapsed.Nanoseconds()) / float64(r.Ops) }}}
	if c.Telemetry {
		latency = append(latency, mallocP50Column, mallocP99Column, retriesPerOpColumn)
	}
	magSize := cmp.Or(c.Options.LockFree.MagazineSize, 64)

	exps = append(exps, []Experiment{{
		ID:    "latency",
		Title: "§4.2.1: contention-free latency per malloc/free pair",
		Paper: "POWER4: New 282 ns/pair (Linux-scalability); test-and-set lock pair 165 ns; Hoard 560 ns, Ptmalloc 404 ns after lock tuning",
		spec: spec{
			layout: bySubject, title: "Contention-free latency (1 thread, Linux-scalability loop)", head: "allocator",
			workloads: loads{linux}, threads: one, columns: latency,
			extra: rawSyncCosts, // the paper's 165 ns lock-pair datum
			notes: []string{"paper (POWER4): New 282, Ptmalloc 404, Hoard 560, lock pair 165; the target is the ordering and the ~2x lock-pair bound for the lock-free allocator"},
		},
	}, {
		ID:    "space",
		Title: "§4.2.5: maximum space used (Threadtest, Larson, Producer-consumer)",
		Paper: "New slightly below Hoard; Ptmalloc/New ratio 1.16 (Threadtest) to 3.83 (Larson) on 16 procs",
		spec: spec{
			layout: byWorkload, title: fmt.Sprintf("Maximum space used (bytes) at %d threads", most[0]), head: "benchmark",
			subjects: paperSubjects, workloads: loads{threadtest, larson, prodcons(500)},
			threads: most, columns: []column{maxLiveColumn},
			last: &rowColumn{"pt/lockfree", func(_ bench.Workload, space map[string]float64) string {
				if space["lockfree"] == 0 || space["ptmalloc"] == 0 {
					return "-"
				}
				return fixed(2)(space["ptmalloc"] / space["lockfree"])
			}},
			notes: []string{"paper: New consistently slightly below Hoard; Ptmalloc/New from 1.16 (Threadtest) to 3.83 (Larson) at 16 procs"},
		},
	}, {
		ID:    "unip",
		Title: "§4.2.4: uniprocessor optimization (single heap, no thread-id lookup)",
		Paper: "+15% contention-free speedup on Linux scalability (POWER3)",
		spec: spec{
			layout: bySubject, title: "Uniprocessor optimization: single-heap lock-free allocator, 1 thread", head: "config",
			subjects: []subject{
				{name: "lockfree", label: fmt.Sprintf("heaps=%d", procs)},
				{name: "lockfree", label: "heaps=1", edit: func(o *alloc.Options) { o.Processors = 1 }},
			},
			workloads: loads{linux}, threads: one, ref: firstRow,
			columns: []column{opsColumn, {name: "vs multi-heap", value: bench.Result.SpeedupOver, show: fixed(2)}},
			notes:   []string{"paper: +15% contention-free speedup on POWER3 (§4.2.4)"},
		},
	}, {
		// The paper's own design choices (§3.2.3, §3.2.6, §3.2.5) one at
		// a time against the baseline. No counter columns: the comparison
		// is throughput and space.
		ID:    "ablate",
		Title: "Ablations: credits, FIFO vs LIFO partial lists, new-superblock race policy, partial slot",
		Paper: "design choices discussed in §3.2.3 and §3.2.6",
		spec: sweep("Ablation", []subject{
			lockfree("baseline (credits=64, FIFO, free-on-race-loss, partial slot)", func(*core.Config) {}),
			lockfree("credits=1 (no batched reservations)", func(c *core.Config) { c.MaxCredits = 1 }),
			lockfree("credits=8", func(c *core.Config) { c.MaxCredits = 8 }),
			lockfree("LIFO partial lists", func(c *core.Config) { c.PartialLIFO = true }),
			lockfree("keep new SB on race loss", func(c *core.Config) { c.KeepNewSBOnRaceLoss = true }),
			lockfree("no per-heap partial slot", func(c *core.Config) { c.NoPartialSlot = true }),
			lockfree("hyperblock batching (§3.2.5)", func(c *core.Config) { c.Hyperblocks = true }),
		}, loads{linux, larson}, nil),
	}, {
		// Magazines off and on, on the two workloads with the heaviest
		// shared-word traffic.
		ID:    "magazine",
		Title: "Magazine layer: thread-local batched caching on top of the lock-free heap",
		Paper: "beyond the paper — batches the paper's per-op CAS traffic; compare retries/op and malloc p50 against the faithful configuration",
		spec: sweep("Magazine layer", []subject{
			lockfree("magazines off (paper-faithful)", func(c *core.Config) { c.MagazineSize = 0 }),
			lockfree(fmt.Sprintf("magazines on (size=%d)", magSize), func(c *core.Config) { c.MagazineSize = magSize }),
		}, loads{larson, prodcons(500)}, []column{
			telColumn("retries", nil, func(tel *bench.TelemetrySummary) float64 { return float64(tel.TotalRetries) }),
			retriesPerOpColumn,
			mallocP50Column,
			telColumn("hit rate", percent, func(tel *bench.TelemetrySummary) float64 {
				return 100 * float64(tel.MagHits) / positive(tel.MagHits+tel.MagMisses)
			}),
		}, "same binary, same run; magazines batch Active/anchor CAS traffic into refills and flushes"),
	}, {
		// The observability tax: the workload alone against the same
		// workload with a census walker looping beside it (bench.Walked).
		// Both rows have a recorder, so the delta isolates the walker.
		ID:    "census",
		Title: "Heap census: walker overhead under Larson",
		Paper: "beyond the paper — quantifies the observability tax: walker off vs a concurrent census walker; acceptance is <= 3% ops/s",
		spec: spec{
			layout: bySubject, title: fmt.Sprintf("Heap census overhead: %s at %d threads", larson.Name(), most[0]), head: "variant",
			subjects: []subject{
				{name: "lockfree", label: "walker off"},
				{name: "lockfree", label: "walker on (a census every 2 ms)", walked: true},
			},
			workloads: loads{larson}, threads: most, ref: firstRow, telemetry: true,
			columns: []column{
				opsColumn,
				{name: "vs off", value: bench.Result.SpeedupOver, show: fixed(3)},
				censusColumn("walks", nil, func(r bench.Result) float64 { return float64(r.CensusWalks) }),
				censusColumn("ext frag", percent, func(r bench.Result) float64 { return r.Census.ExternalFragPct }),
			},
			notes: []string{
				"both variants run with telemetry attached; the delta isolates the walker",
				"acceptance: walker on within 3% ops/s of walker off",
			},
		},
	}, {
		// Mixed-size churn on the three allocators with a structurally
		// different answer to fragmentation — buddy (lock-free coalescing),
		// ptmalloc (boundary-tag coalescing in locked arenas), lockfree
		// (size-class heaps, no coalescing below the superblock): external
		// fragmentation with the live set held, next to the throughput
		// each paid for it.
		ID:    "frag",
		Title: "Fragmentation vs throughput: non-blocking buddy vs ptmalloc vs lock-free size classes",
		Paper: "beyond the paper — §2 dismisses coalescing for the hot path; the buddy backend (Marotta et al.) adds lock-free coalescing, and this measures what it buys: external fragmentation (free-but-unreturnable space while a mixed-size live set is held) against the ops/s it costs",
		spec: spec{
			layout: bySubject, title: fmt.Sprintf("External fragmentation under mixed-size churn (16 B..8 KiB log-uniform, %d threads)", most[0]), head: "allocator",
			subjects:  []subject{{name: "buddy"}, {name: "ptmalloc"}, {name: "lockfree"}},
			workloads: loads{fragChurn}, threads: most,
			columns: []column{
				opsColumn,
				{name: "held KiB", value: func(r, _ bench.Result) float64 { return float64(r.HeldBytes / 1024) }, space: true},
				{name: "in use KiB", value: func(r, _ bench.Result) float64 { return float64(r.InUseBytes / 1024) }, space: true},
				{name: "ext frag", value: func(r, _ bench.Result) float64 { return 100 * r.ExternalFragRatio }, show: percent, space: true},
			},
			notes: []string{
				"ext frag = 1 - inUse/held with the final live set still allocated: the fraction of",
				"allocator-held memory backing no live block (free lists, partial superblocks, holes)",
				"held also bounds blowup: the buddy and ptmalloc's arenas coalesce neighbors and reuse any",
				"fit, the size-class heaps can only reuse a block for its own class",
			},
		},
	}}...)
	for i := range exps {
		exps[i].cfg = c
	}
	return exps
}

// ByID finds an experiment.
func ByID(cfg RunConfig, id string) (Experiment, bool) {
	for _, e := range Experiments(cfg) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

var (
	opsColumn     = column{name: "ops/s", value: func(r, _ bench.Result) float64 { return r.OpsPerSec() }}
	maxLiveColumn = column{name: "maxlive B", value: func(r, _ bench.Result) float64 { return float64(r.MaxLiveBytes) }, space: true}
	speedupColumn = column{name: "speedup over contention-free serial", value: bench.Result.SpeedupOver, show: fixed(2)}

	// A quantile of 0 ns is a recorder that timed nothing: the buddy's
	// counts CAS retries alone.
	mallocP50Column = telColumn("malloc p50", duration, func(tel *bench.TelemetrySummary) float64 { return positive(tel.MallocP50NS) })
	mallocP99Column = telColumn("malloc p99", duration, func(tel *bench.TelemetrySummary) float64 { return positive(tel.MallocP99NS) })

	retriesPerOpColumn = telColumn("retries/op", fixed(4), func(tel *bench.TelemetrySummary) float64 { return tel.RetriesPerOp })
)

// positive is v, or for 0 the NaN that prints as "-".
func positive(v uint64) float64 {
	if v == 0 {
		return math.NaN()
	}
	return float64(v)
}

// telColumn is a column computed from the row's telemetry summary,
// censusColumn one from the digest of the census taken after its run;
// the cell is "-" for a row without one.
func telColumn(name string, show func(float64) string, value func(*bench.TelemetrySummary) float64) column {
	return column{name: name, show: show, value: func(r, _ bench.Result) float64 {
		if r.Telemetry == nil || r.Ops == 0 {
			return math.NaN()
		}
		return value(r.Telemetry)
	}}
}

func censusColumn(name string, show func(float64) string, value func(bench.Result) float64) column {
	return column{name: name, show: show, value: func(r, _ bench.Result) float64 {
		if r.Census == nil {
			return math.NaN()
		}
		return value(r)
	}}
}
