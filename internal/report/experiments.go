package report

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/alloc"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/telemetry"
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
	// understands (all of them Processors and HeapConfig.Arenas, the
	// lock-free allocator its LockFree shape — magazines, descriptor
	// stripes and backend). Processors 0 uses the maximum of Threads.
	// An experiment's variants are edits of a copy.
	Options alloc.Options
	// Telemetry attaches a fresh telemetry recorder to every allocator
	// constructed for an experiment (the lock-free allocator and the
	// buddy count into it), so each printed result carries CAS
	// retries/op and latency quantiles for its interval.
	Telemetry bool
	// SampleRate sets the allocation sampler's period (one sample per
	// SampleRate mallocs) on every telemetry recorder constructed for
	// an experiment; 0 leaves the sampler off. Requires Telemetry.
	SampleRate int
	// Record, when non-nil, receives every individual measurement as
	// it is taken (used for machine-readable output, e.g. benchmal
	// -json).
	Record func(bench.Result)
}

// note forwards a measurement to the Record callback, if any.
func (c RunConfig) note(r bench.Result) {
	if c.Record != nil {
		c.Record(r)
	}
}

func (c RunConfig) withDefaults() RunConfig {
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 2, 4, 8, 16}
	}
	if c.Scale == 0 {
		c.Scale = 0.01
	}
	if len(c.Allocators) == 0 {
		c.Allocators = alloc.Names()
	}
	if c.Options.Processors == 0 {
		for _, t := range c.Threads {
			if t > c.Options.Processors {
				c.Options.Processors = t
			}
		}
	}
	return c
}

func (c RunConfig) scaleInt(full int) int {
	n := int(float64(full) * c.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

func (c RunConfig) scaleDur(full time.Duration) time.Duration {
	d := time.Duration(float64(full) * c.Scale)
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}

// newAlloc is the one constructor of the experiments: the named
// backend built from a copy of c.Options with a variant's edit applied
// (nil for none) and, when c.Telemetry is set, a fresh recorder.
func (c RunConfig) newAlloc(name string, edit func(*alloc.Options)) (alloc.Allocator, error) {
	opt := c.Options
	if c.Telemetry {
		opt.LockFree.Telemetry = core.NewRecorder(telemetry.Config{SampleRate: c.SampleRate})
	}
	if edit != nil {
		edit(&opt)
	}
	return alloc.New(name, opt)
}

// workloads at paper scale, adjusted by cfg.Scale.
func (c RunConfig) linuxScalability() bench.Workload {
	return bench.LinuxScalability{Pairs: c.scaleInt(10_000_000), Size: 8}
}

func (c RunConfig) threadtest() bench.Workload {
	return bench.Threadtest{Iterations: c.scaleInt(100), BlocksPerIter: 100_000, Size: 8}
}

func (c RunConfig) activeFalse() bench.Workload {
	// The paper's 10,000 pairs run in microseconds on this substrate;
	// a floor keeps the measurement above timer noise at small scales.
	pairs := c.scaleInt(10_000)
	if pairs < 5_000 {
		pairs = 5_000
	}
	return bench.ActiveFalse{Pairs: pairs, WritesPerWord: 1000, Size: 8}
}

func (c RunConfig) passiveFalse() bench.Workload {
	pairs := c.scaleInt(10_000)
	if pairs < 5_000 {
		pairs = 5_000
	}
	return bench.PassiveFalse{Pairs: pairs, WritesPerWord: 1000, Size: 8}
}

func (c RunConfig) larson() bench.Workload {
	return bench.Larson{
		Duration:        c.scaleDur(30 * time.Second),
		BlocksPerThread: 1024,
		MinSize:         16,
		MaxSize:         80,
	}
}

func (c RunConfig) fragChurn() bench.Workload {
	// Log-uniform 16 B..8 KiB requests span ten buddy orders and every
	// lock-free size class; 100k churn ops per worker at full scale
	// shatter and re-coalesce each arena thousands of times.
	return bench.FragChurn{Ops: c.scaleInt(100_000), Slots: 256, MinSize: 16, MaxSize: 8192}
}

func (c RunConfig) descChurn() bench.Workload {
	// 2048-byte blocks put 7 blocks in each 16 KiB superblock, so every
	// batch of 64 creates and empties ~10 superblocks: the descriptor
	// pool is the bottleneck, not block carving.
	return bench.DescChurn{Rounds: c.scaleInt(2000), Batch: 64, Size: 2048}
}

func (c RunConfig) producerConsumer(work int) bench.Workload {
	return bench.ProducerConsumer{
		Duration: c.scaleDur(30 * time.Second),
		Work:     work,
		DBSize:   1 << 20,
	}
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID    string
	Title string
	Paper string // what the paper reports, for side-by-side comparison
	Run   func(cfg RunConfig, out io.Writer) error
}

// Experiments returns all experiments in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{
			ID:    "table1",
			Title: "Table 1: contention-free speedup over libc (serial) malloc",
			Paper: "POWER3/POWER4 — Linux-scalability: New 2.25/2.75 Hoard 1.11/1.38 Ptmalloc 1.83/1.92; Threadtest: 2.18/2.35 1.20/1.23 1.94/1.97; Larson: 2.90/2.95 2.22/2.37 2.53/2.67",
			Run:   runTable1,
		},
		{
			ID:    "fig8a",
			Title: "Figure 8(a): Linux scalability — speedup over contention-free serial",
			Paper: "New, Hoard, Ptmalloc scale with slopes ~ contention-free latency; libc collapses (0.4 at 2 procs, 331x slower than New at 16)",
			Run:   figRunner(func(c RunConfig) bench.Workload { return c.linuxScalability() }),
		},
		{
			ID:    "fig8b",
			Title: "Figure 8(b): Threadtest — speedup over contention-free serial",
			Paper: "New and Hoard scale per latency; Ptmalloc scales at a lower rate under high contention",
			Run:   figRunner(func(c RunConfig) bench.Workload { return c.threadtest() }),
		},
		{
			ID:    "fig8c",
			Title: "Figure 8(c): Active false sharing — speedup over contention-free serial",
			Paper: "New and Hoard avoid inducing false sharing; Ptmalloc and libc suffer",
			Run:   figRunner(func(c RunConfig) bench.Workload { return c.activeFalse() }),
		},
		{
			ID:    "fig8d",
			Title: "Figure 8(d): Passive false sharing — speedup over contention-free serial",
			Paper: "same shape as 8(c)",
			Run:   figRunner(func(c RunConfig) bench.Workload { return c.passiveFalse() }),
		},
		{
			ID:    "fig8e",
			Title: "Figure 8(e): Larson — speedup over contention-free serial",
			Paper: "New and Hoard scale; Ptmalloc does not (arena thrashing, 22 arenas for 16 threads)",
			Run:   figRunner(func(c RunConfig) bench.Workload { return c.larson() }),
		},
		{
			ID:    "fig8f",
			Title: "Figure 8(f): Producer-consumer, work=500 — speedup over contention-free serial",
			Paper: "New scales to 13 procs (then the benchmark itself saturates); Hoard suffers contention on the producer's heap",
			Run:   figRunner(func(c RunConfig) bench.Workload { return c.producerConsumer(500) }),
		},
		{
			ID:    "fig8g",
			Title: "Figure 8(g): Producer-consumer, work=750 — speedup over contention-free serial",
			Paper: "New scales perfectly; others below",
			Run:   figRunner(func(c RunConfig) bench.Workload { return c.producerConsumer(750) }),
		},
		{
			ID:    "fig8h",
			Title: "Figure 8(h): Producer-consumer, work=1000 — speedup over contention-free serial",
			Paper: "New scales perfectly; others below",
			Run:   figRunner(func(c RunConfig) bench.Workload { return c.producerConsumer(1000) }),
		},
		{
			ID:    "latency",
			Title: "§4.2.1: contention-free latency per malloc/free pair",
			Paper: "POWER4: New 282 ns/pair (Linux-scalability); test-and-set lock pair 165 ns; Hoard 560 ns, Ptmalloc 404 ns after lock tuning",
			Run:   runLatency,
		},
		{
			ID:    "space",
			Title: "§4.2.5: maximum space used (Threadtest, Larson, Producer-consumer)",
			Paper: "New slightly below Hoard; Ptmalloc/New ratio 1.16 (Threadtest) to 3.83 (Larson) on 16 procs",
			Run:   runSpace,
		},
		{
			ID:    "unip",
			Title: "§4.2.4: uniprocessor optimization (single heap, no thread-id lookup)",
			Paper: "+15% contention-free speedup on Linux scalability (POWER3)",
			Run:   runUniprocessor,
		},
		{
			ID:    "ablate",
			Title: "Ablations: credits, FIFO vs LIFO partial lists, new-superblock race policy, partial slot",
			Paper: "design choices discussed in §3.2.3 and §3.2.6",
			Run:   sweepRunner(ablationSweep),
		},
		{
			ID:    "magazine",
			Title: "Magazine layer: thread-local batched caching on top of the lock-free heap",
			Paper: "beyond the paper — batches the paper's per-op CAS traffic; compare retries/op and malloc p50 against the faithful configuration",
			Run:   sweepRunner(magazineSweep),
		},
		{
			ID:    "arenas",
			Title: "Region arenas: per-processor OS-layer sharding with lock-free stealing",
			Paper: "beyond the paper — shards the OS layer's bump pointer and free-region bins; compare region-CAS retries and steals against the unsharded layout",
			Run:   sweepRunner(arenasSweep),
		},
		{
			ID:    "poolstripes",
			Title: "Descriptor-pool stripes: sharded freelist heads with batched chain migration",
			Paper: "beyond the paper — stripes the paper's single DescAvail list; compare desc-alloc/desc-retire retries and chain migrations against the unstriped layout",
			Run:   sweepRunner(poolStripesSweep),
		},
		{
			ID:    "poolalgo",
			Title: "Descriptor-pool backend: Figure-7 tagged freelist vs Blelloch-Wei constant-time batches",
			Paper: "beyond the paper — swaps the DescAvail freelist for the constant-time batch scheme (Blelloch & Wei); compare desc retries/op, malloc p50/p99, and batch handoffs under DescChurn and Larson",
			Run:   sweepRunner(poolAlgoSweep),
		},
		{
			ID:    "census",
			Title: "Heap census: walker + allocation-sampler overhead under Larson",
			Paper: "beyond the paper — quantifies the observability tax: sampler off vs on with a concurrent census walker; acceptance is <= 3% ops/s at the default sample rate",
			Run:   runCensus,
		},
		{
			ID:    "frag",
			Title: "Fragmentation vs throughput: non-blocking buddy vs chunk heap vs lock-free size classes",
			Paper: "beyond the paper — §2 dismisses coalescing for the hot path; the buddy backend (Marotta et al.) adds lock-free coalescing, and this measures what it buys: external fragmentation (free-but-unreturnable space while a mixed-size live set is held) against the ops/s it costs",
			Run:   runFrag,
		},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// repetitions for the scalar (non-sweep) experiments; single runs on
// an oversubscribed host jitter by up to 2x, so best-of-N is reported.
const scalarReps = 3

// bestOf runs the workload scalarReps times on fresh allocators of the
// named kind (each with edit applied, see newAlloc) and returns the
// highest-throughput result.
func bestOf(cfg RunConfig, name string, edit func(*alloc.Options), w bench.Workload, threads int) (bench.Result, error) {
	var best bench.Result
	for i := 0; i < scalarReps; i++ {
		a, err := cfg.newAlloc(name, edit)
		if err != nil {
			return bench.Result{}, err
		}
		runtime.GC()
		r := w.Run(a, threads)
		cfg.note(r)
		if r.OpsPerSec() > best.OpsPerSec() {
			best = r
		}
	}
	return best, nil
}

// serialBaseline measures the contention-free (1-thread) serial
// allocator on the workload: the denominator of every speedup in the
// paper.
func serialBaseline(cfg RunConfig, w bench.Workload) (bench.Result, error) {
	return bestOf(cfg, "serial", nil, w, 1)
}

// figRunner builds a Figure 8 style sweep: speedup over contention-free
// serial for each allocator at each thread count.
func figRunner(mkWorkload func(RunConfig) bench.Workload) func(RunConfig, io.Writer) error {
	return func(cfg RunConfig, out io.Writer) error {
		cfg = cfg.withDefaults()
		w := mkWorkload(cfg)
		base, err := serialBaseline(cfg, w)
		if err != nil {
			return err
		}
		fig := Figure{Title: w.Name(), YLabel: "speedup over contention-free serial"}
		for _, name := range cfg.Allocators {
			s := Series{Name: name}
			for _, t := range cfg.Threads {
				a, err := cfg.newAlloc(name, nil)
				if err != nil {
					return err
				}
				// The previous run's arena segments are garbage now;
				// collect them outside the timed region so background
				// sweeps do not perturb the measurement.
				runtime.GC()
				r := w.Run(a, t)
				cfg.note(r)
				s.Points = append(s.Points, Point{Threads: t, Value: r.SpeedupOver(base)})
				fmt.Fprintf(out, "# %s\n", r)
			}
			fig.Series = append(fig.Series, s)
		}
		fmt.Fprintln(out)
		fmt.Fprint(out, fig.Render())
		return nil
	}
}

func runTable1(cfg RunConfig, out io.Writer) error {
	cfg = cfg.withDefaults()
	type row struct {
		name string
		w    bench.Workload
	}
	rows := []row{
		{"Linux scalability", cfg.linuxScalability()},
		{"Threadtest", cfg.threadtest()},
		{"Larson", cfg.larson()},
	}
	paper := map[string][3]string{ // POWER3 values: New, Hoard, Ptmalloc
		"Linux scalability": {"2.25", "1.11", "1.83"},
		"Threadtest":        {"2.18", "1.20", "1.94"},
		"Larson":            {"2.90", "2.22", "2.53"},
	}
	t := Table{
		Title:   "Table 1: contention-free speedup over serial (libc stand-in), 1 thread",
		Columns: []string{"benchmark", "lockfree", "hoard", "ptmalloc", "paper(P3): new/hoard/pt"},
		Notes: []string{
			"paper columns are the POWER3 values from Table 1",
			"absolute ratios depend on the simulated heap's constant factors; the ordering lockfree > ptmalloc > hoard is the reproduction target",
		},
	}
	for _, r := range rows {
		base, err := serialBaseline(cfg, r.w)
		if err != nil {
			return err
		}
		cells := []string{r.name}
		for _, name := range []string{"lockfree", "hoard", "ptmalloc"} {
			res, err := bestOf(cfg, name, nil, r.w, 1)
			if err != nil {
				return err
			}
			cells = append(cells, fmt.Sprintf("%.2f", res.SpeedupOver(base)))
			fmt.Fprintf(out, "# %s\n", res)
		}
		p := paper[r.name]
		cells = append(cells, fmt.Sprintf("%s/%s/%s", p[0], p[1], p[2]))
		t.Rows = append(t.Rows, cells)
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, t.Render())
	return nil
}

func runLatency(cfg RunConfig, out io.Writer) error {
	cfg = cfg.withDefaults()
	w := cfg.linuxScalability().(bench.LinuxScalability)
	t := Table{
		Title:   "Contention-free latency (1 thread, Linux-scalability loop)",
		Columns: []string{"allocator", "ns/pair"},
	}
	if cfg.Telemetry {
		t.Columns = append(t.Columns, "malloc p50", "malloc p99", "retries/op")
	}
	pad := func(cells []string) []string {
		for len(cells) < len(t.Columns) {
			cells = append(cells, "-")
		}
		return cells
	}
	for _, name := range cfg.Allocators {
		r, err := bestOf(cfg, name, nil, w, 1)
		if err != nil {
			return err
		}
		ns := float64(r.Elapsed.Nanoseconds()) / float64(r.Ops)
		cells := []string{name, fmt.Sprintf("%.0f", ns)}
		// Only a recorder that timed operations has quantiles: the
		// buddy's counts CAS retries alone.
		if tel := r.Telemetry; cfg.Telemetry && tel != nil && tel.MallocP50NS > 0 {
			cells = append(cells,
				time.Duration(tel.MallocP50NS).String(),
				time.Duration(tel.MallocP99NS).String(),
				fmt.Sprintf("%.4f", tel.RetriesPerOp))
		}
		t.Rows = append(t.Rows, pad(cells))
	}
	// Raw synchronization costs, the paper's 165 ns lock-pair datum.
	lockNS, casNS := rawSyncCosts()
	t.Rows = append(t.Rows,
		pad([]string{"(mutex lock+unlock)", fmt.Sprintf("%.0f", lockNS)}),
		pad([]string{"(single CAS)", fmt.Sprintf("%.0f", casNS)}),
	)
	t.Notes = append(t.Notes,
		"paper (POWER4): New 282, Ptmalloc 404, Hoard 560, lock pair 165; the target is the ordering and the ~2x lock-pair bound for the lock-free allocator")
	fmt.Fprint(out, t.Render())
	return nil
}

func runSpace(cfg RunConfig, out io.Writer) error {
	cfg = cfg.withDefaults()
	maxT := cfg.Threads[len(cfg.Threads)-1]
	workloads := []bench.Workload{cfg.threadtest(), cfg.larson(), cfg.producerConsumer(500)}
	t := Table{
		Title:   fmt.Sprintf("Maximum space used (bytes) at %d threads", maxT),
		Columns: []string{"benchmark", "lockfree", "hoard", "ptmalloc", "pt/lockfree"},
		Notes: []string{
			"paper: New consistently slightly below Hoard; Ptmalloc/New from 1.16 (Threadtest) to 3.83 (Larson) at 16 procs",
		},
	}
	for _, w := range workloads {
		cells := []string{w.Name()}
		var lf, pt float64
		for _, name := range []string{"lockfree", "hoard", "ptmalloc"} {
			a, err := cfg.newAlloc(name, nil)
			if err != nil {
				return err
			}
			r := w.Run(a, maxT)
			cfg.note(r)
			cells = append(cells, fmt.Sprintf("%d", r.MaxLiveBytes))
			switch name {
			case "lockfree":
				lf = float64(r.MaxLiveBytes)
			case "ptmalloc":
				pt = float64(r.MaxLiveBytes)
			}
		}
		if lf > 0 {
			cells = append(cells, fmt.Sprintf("%.2f", pt/lf))
		} else {
			cells = append(cells, "-")
		}
		t.Rows = append(t.Rows, cells)
	}
	fmt.Fprint(out, t.Render())
	return nil
}

// runFrag churns mixed-size blocks on the three allocators with a
// structurally different answer to fragmentation — buddy (lock-free
// coalescing), chunkheap (serialized boundary-tag coalescing), and
// lockfree (size-class heaps, no coalescing below the superblock) —
// and reports external fragmentation with the live set held, next to
// the throughput each paid for it.
func runFrag(cfg RunConfig, out io.Writer) error {
	cfg = cfg.withDefaults()
	maxT := cfg.Threads[len(cfg.Threads)-1]
	w := cfg.fragChurn()
	t := Table{
		Title:   fmt.Sprintf("External fragmentation under mixed-size churn (16 B..8 KiB log-uniform, %d threads)", maxT),
		Columns: []string{"allocator", "ops/s", "held KiB", "in use KiB", "ext frag"},
		Notes: []string{
			"ext frag = 1 - inUse/held with the final live set still allocated: the fraction of",
			"allocator-held memory backing no live block (free lists, partial superblocks, holes)",
			"held also bounds blowup: the buddy and chunk heap coalesce neighbors and reuse any",
			"fit, the size-class heaps can only reuse a block for its own class",
		},
	}
	for _, name := range []string{"buddy", "chunkheap", "lockfree"} {
		r, err := bestOf(cfg, name, nil, w, maxT)
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.0f", r.OpsPerSec()),
			fmt.Sprintf("%d", r.HeldBytes/1024),
			fmt.Sprintf("%d", r.InUseBytes/1024),
			fmt.Sprintf("%.1f%%", 100*r.ExternalFragRatio),
		})
	}
	fmt.Fprint(out, t.Render())
	return nil
}

func runUniprocessor(cfg RunConfig, out io.Writer) error {
	cfg = cfg.withDefaults()
	w := cfg.linuxScalability()
	multi, err := cfg.newAlloc("lockfree", nil)
	if err != nil {
		return err
	}
	single, err := cfg.newAlloc("lockfree", func(o *alloc.Options) { o.Processors = 1 })
	if err != nil {
		return err
	}
	rm := w.Run(multi, 1)
	cfg.note(rm)
	rs := w.Run(single, 1)
	cfg.note(rs)
	t := Table{
		Title:   "Uniprocessor optimization: single-heap lock-free allocator, 1 thread",
		Columns: []string{"config", "ops/s", "vs multi-heap"},
		Notes:   []string{"paper: +15% contention-free speedup on POWER3 (§4.2.4)"},
	}
	t.Rows = append(t.Rows,
		[]string{fmt.Sprintf("heaps=%d", cfg.Options.Processors), fmt.Sprintf("%.0f", rm.OpsPerSec()), "1.00"},
		[]string{"heaps=1", fmt.Sprintf("%.0f", rs.OpsPerSec()), fmt.Sprintf("%.2f", rs.OpsPerSec()/rm.OpsPerSec())},
	)
	fmt.Fprint(out, t.Render())
	return nil
}

// knobSweep is one A/B experiment over a single allocator knob: every
// variant runs every workload at the maximum thread count, best of
// scalarReps, and lands as one row of that workload's table. A sweep
// with counter columns forces telemetry on so all rows of a table carry
// their counters from the same kind of run — the acceptance comparison
// for the knob.
type knobSweep struct {
	title     string // table titles read "<title>: <workload> at <n> threads"
	variants  []knobVariant
	workloads []bench.Workload
	columns   []knobColumn // between "variant", "ops/s" and "maxlive B"
	notes     []string
}

// knobVariant names one setting of the knob and applies it to the
// options every lock-free allocator of its rows is built from.
type knobVariant struct {
	name string
	set  func(*alloc.Options)
}

type knobColumn struct {
	name string
	cell func(bench.Result) string
}

// sweepRunner turns a knobSweep (built from the defaulted run
// configuration, which supplies scales and the processor count) into an
// experiment runner.
func sweepRunner(spec func(RunConfig) knobSweep) func(RunConfig, io.Writer) error {
	return func(cfg RunConfig, out io.Writer) error {
		cfg = cfg.withDefaults()
		maxT := cfg.Threads[len(cfg.Threads)-1]
		s := spec(cfg)
		if len(s.columns) > 0 {
			cfg.Telemetry = true
		}
		columns := []string{"variant", "ops/s"}
		for _, c := range s.columns {
			columns = append(columns, c.name)
		}
		columns = append(columns, "maxlive B")
		for _, w := range s.workloads {
			t := Table{
				Title:   fmt.Sprintf("%s: %s at %d threads", s.title, w.Name(), maxT),
				Columns: columns,
				Notes:   s.notes,
			}
			for _, v := range s.variants {
				best, err := bestOf(cfg, "lockfree", v.set, w, maxT)
				if err != nil {
					return err
				}
				row := []string{v.name, fmt.Sprintf("%.0f", best.OpsPerSec())}
				for _, c := range s.columns {
					row = append(row, c.cell(best))
				}
				t.Rows = append(t.Rows, append(row, fmt.Sprintf("%d", best.MaxLiveBytes)))
			}
			fmt.Fprint(out, t.Render())
			fmt.Fprintln(out)
		}
		return nil
	}
}

// telColumn is a column computed from the row's telemetry summary; the
// cell is "-" for a row without one.
func telColumn(name string, cell func(bench.Result, *bench.TelemetrySummary) string) knobColumn {
	return knobColumn{name, func(r bench.Result) string {
		if r.Telemetry == nil || r.Ops == 0 {
			return "-"
		}
		return cell(r, r.Telemetry)
	}}
}

// retriesColumn sums the failed CASes at the named telemetry sites;
// retriesPerOpColumn divides that by the workload's operation count.
func retriesColumn(name string, sites ...string) knobColumn {
	return telColumn(name, func(_ bench.Result, tel *bench.TelemetrySummary) string {
		return fmt.Sprintf("%d", siteRetries(tel, sites))
	})
}

func retriesPerOpColumn(name string, sites ...string) knobColumn {
	return telColumn(name, func(r bench.Result, tel *bench.TelemetrySummary) string {
		return fmt.Sprintf("%.6f", float64(siteRetries(tel, sites))/float64(r.Ops))
	})
}

func siteRetries(tel *bench.TelemetrySummary, sites []string) (n uint64) {
	for _, site := range sites {
		n += tel.RetriesBySite[site]
	}
	return n
}

var (
	mallocP50Column = telColumn("malloc p50", func(_ bench.Result, tel *bench.TelemetrySummary) string {
		return time.Duration(tel.MallocP50NS).String()
	})
	mallocP99Column = telColumn("malloc p99", func(_ bench.Result, tel *bench.TelemetrySummary) string {
		return time.Duration(tel.MallocP99NS).String()
	})
)

// magazineSweep compares the lock-free allocator with magazines off and
// on, on the two workloads with the heaviest shared-word traffic.
func magazineSweep(cfg RunConfig) knobSweep {
	magSize := cfg.Options.LockFree.MagazineSize
	if magSize == 0 {
		magSize = 64
	}
	size := func(n int) func(*alloc.Options) {
		return func(o *alloc.Options) { o.LockFree.MagazineSize = n }
	}
	return knobSweep{
		title: "Magazine layer",
		variants: []knobVariant{
			{"magazines off (paper-faithful)", size(0)},
			{fmt.Sprintf("magazines on (size=%d)", magSize), size(magSize)},
		},
		workloads: []bench.Workload{cfg.larson(), cfg.producerConsumer(500)},
		columns: []knobColumn{
			telColumn("retries", func(_ bench.Result, tel *bench.TelemetrySummary) string {
				return fmt.Sprintf("%d", tel.TotalRetries)
			}),
			telColumn("retries/op", func(_ bench.Result, tel *bench.TelemetrySummary) string {
				return fmt.Sprintf("%.4f", tel.RetriesPerOp)
			}),
			mallocP50Column,
			telColumn("hit rate", func(_ bench.Result, tel *bench.TelemetrySummary) string {
				if tel.MagHits+tel.MagMisses == 0 {
					return "-"
				}
				return fmt.Sprintf("%.1f%%", 100*tel.MagHitRate)
			}),
		},
		notes: []string{
			"same binary, same run; magazines batch Active/anchor CAS traffic into refills and flushes",
		},
	}
}

// regionSites are the telemetry sites of the OS layer's lock-free
// region structures: the free-bin Treiber stacks and the per-arena
// bump pointers.
var regionSites = []string{"region-pop", "region-push", "region-bump"}

// arenasSweep compares the unsharded OS layer (arenas=1, the
// pre-sharding layout) against per-processor region arenas, on the two
// workloads that recycle superblocks through the region bins hardest.
func arenasSweep(cfg RunConfig) knobSweep {
	arenas := func(n int) func(*alloc.Options) {
		return func(o *alloc.Options) { o.HeapConfig.Arenas = n }
	}
	return knobSweep{
		title: "Region arenas",
		variants: []knobVariant{
			{"arenas=1 (global OS layer)", arenas(1)},
			{fmt.Sprintf("arenas=%d (per-processor)", cfg.Options.Processors), arenas(cfg.Options.Processors)},
		},
		workloads: []bench.Workload{cfg.larson(), cfg.linuxScalability()},
		columns: []knobColumn{
			retriesColumn("region retries", regionSites...),
			retriesPerOpColumn("region retries/op", regionSites...),
			retriesColumn("steals", telemetry.SiteRegionSteal.String()),
		},
		notes: []string{
			"region retries = failed CASes at the region-pop, region-push, and region-bump sites",
			"steals = region allocations served from a sibling arena's partition",
		},
	}
}

// descSites are the telemetry sites of the descriptor pool's striped
// freelist heads.
var descSites = []string{"desc-alloc", "desc-retire"}

var migrationsColumn = retriesColumn("migrations", telemetry.SitePoolMigrate.String())

// poolStripesSweep compares the paper's single DescAvail freelist
// (DescStripes=1) against per-processor freelist stripes with batched
// chain migration, on the two workloads that churn descriptors hardest
// (larson recycles superblocks continuously; threadtest creates and
// destroys them in bulk).
func poolStripesSweep(cfg RunConfig) knobSweep {
	stripes := func(n int) func(*alloc.Options) {
		return func(o *alloc.Options) { o.LockFree.DescStripes = n }
	}
	return knobSweep{
		title: "Descriptor-pool stripes",
		variants: []knobVariant{
			{"stripes=1 (single DescAvail)", stripes(1)},
			{fmt.Sprintf("stripes=%d (per-processor)", cfg.Options.Processors), stripes(cfg.Options.Processors)},
		},
		workloads: []bench.Workload{cfg.larson(), cfg.threadtest()},
		columns: []knobColumn{
			retriesColumn("desc retries", descSites...),
			retriesPerOpColumn("desc retries/op", descSites...),
			migrationsColumn,
		},
		notes: []string{
			"desc retries = failed CASes at the desc-alloc and desc-retire freelist sites",
			"migrations = whole-chain transfers from a sibling stripe to a dry one",
		},
	}
}

// poolAlgoSweep pits the descriptor pool's two recycling backends
// against each other: the Figure-7 tagged freelist (per-processor
// stripes, chain migration) and the Blelloch-Wei constant-time batch
// scheme. DescChurn bottlenecks on descriptor recycling itself; Larson
// shows the backend's cost inside a realistic mixed workload. The
// acceptance claim: the constant-time backend's desc retries/op is ~0
// (its per-node paths have no CAS loop to retry) with Larson ops/s
// within noise of the freelist.
func poolAlgoSweep(cfg RunConfig) knobSweep {
	algo := func(a pool.Algo) func(*alloc.Options) {
		return func(o *alloc.Options) { o.LockFree.DescAlgo = a }
	}
	return knobSweep{
		title: "Descriptor-pool backend",
		variants: []knobVariant{
			{"freelist (Figure 7, striped)", algo(pool.AlgoFreelist)},
			{"consttime (Blelloch-Wei batches)", algo(pool.AlgoConstTime)},
		},
		workloads: []bench.Workload{cfg.descChurn(), cfg.larson()},
		columns: []knobColumn{
			retriesColumn("desc retries", descSites...),
			retriesPerOpColumn("desc retries/op", descSites...),
			mallocP50Column,
			mallocP99Column,
			migrationsColumn,
		},
		notes: []string{
			"desc retries = failed CASes at the desc-alloc and desc-retire sites (shared-stack CASes for consttime)",
			"migrations = chain migrations (freelist) or batch handoffs via the shared stacks (consttime)",
		},
	}
}

// runCensus measures the observability tax: the lock-free allocator
// under Larson at the maximum thread count with the sampler off and no
// walker, against sampler on (default rate) with a census walker
// looping concurrently. Telemetry itself is on in both variants so the
// delta isolates the census machinery, not the recorder.
func runCensus(cfg RunConfig, out io.Writer) error {
	cfg = cfg.withDefaults()
	cfg.Telemetry = true
	maxT := cfg.Threads[len(cfg.Threads)-1]
	rate := cfg.SampleRate
	if rate == 0 {
		rate = 1024
	}
	variants := []struct {
		name   string
		rate   int
		walker bool
	}{
		{"census off (no sampler, no walker)", 0, false},
		{fmt.Sprintf("census on (rate=1/%d + concurrent walker)", rate), rate, true},
	}
	w := cfg.larson()
	t := Table{
		Title:   fmt.Sprintf("Heap census overhead: %s at %d threads", w.Name(), maxT),
		Columns: []string{"variant", "ops/s", "vs off", "walks", "live samples", "int frag", "ext frag", "age p50"},
		Notes: []string{
			"both variants run with telemetry attached; the delta isolates the sampler and walker",
			"acceptance: census on within 3% ops/s of census off at the default rate",
		},
	}
	var offOps float64
	for _, v := range variants {
		vcfg := cfg
		vcfg.SampleRate = v.rate
		var best bench.Result
		var bestWalks int
		for i := 0; i < scalarReps; i++ {
			a, err := vcfg.newAlloc("lockfree", nil)
			if err != nil {
				return err
			}
			runtime.GC()
			walks := 0
			stop := make(chan struct{})
			var walkerDone chan struct{}
			if v.walker {
				walkerDone = make(chan struct{})
				h := alloc.HarnessOf(a)
				go func() {
					defer close(walkerDone)
					for {
						select {
						case <-stop:
							return
						default:
						}
						h.Census()
						walks++
						time.Sleep(2 * time.Millisecond)
					}
				}()
			}
			r := w.Run(a, maxT)
			close(stop)
			if walkerDone != nil {
				<-walkerDone
			}
			cfg.note(r)
			if r.OpsPerSec() > best.OpsPerSec() {
				best = r
				bestWalks = walks
			}
		}
		rel := "1.00"
		if v.rate == 0 {
			offOps = best.OpsPerSec()
		} else if offOps > 0 {
			rel = fmt.Sprintf("%.3f", best.OpsPerSec()/offOps)
		}
		walksCell, samples, intFrag, extFrag, ageP50 := "-", "-", "-", "-", "-"
		if v.walker {
			walksCell = fmt.Sprintf("%d", bestWalks)
		}
		if c := best.Census; c != nil {
			samples = fmt.Sprintf("%d", c.LiveSamples)
			if c.InternalFragPct >= 0 {
				intFrag = fmt.Sprintf("%.1f%%", c.InternalFragPct)
			}
			extFrag = fmt.Sprintf("%.1f%%", c.ExternalFragPct)
			ageP50 = time.Duration(c.AgeP50NS).String()
		}
		t.Rows = append(t.Rows, []string{
			v.name,
			fmt.Sprintf("%.0f", best.OpsPerSec()),
			rel, walksCell, samples, intFrag, extFrag, ageP50,
		})
	}
	fmt.Fprint(out, t.Render())
	return nil
}

// ablationSweep toggles the paper's own design choices (§3.2.3,
// §3.2.6, §3.2.5) one at a time against the baseline. No counter
// columns: the comparison is throughput and space.
func ablationSweep(cfg RunConfig) knobSweep {
	lockFree := func(set func(*core.Config)) func(*alloc.Options) {
		return func(o *alloc.Options) { set(&o.LockFree) }
	}
	return knobSweep{
		title: "Ablation",
		variants: []knobVariant{
			{"baseline (credits=64, FIFO, free-on-race-loss, partial slot)", lockFree(func(*core.Config) {})},
			{"credits=1 (no batched reservations)", lockFree(func(c *core.Config) { c.MaxCredits = 1 })},
			{"credits=8", lockFree(func(c *core.Config) { c.MaxCredits = 8 })},
			{"LIFO partial lists", lockFree(func(c *core.Config) { c.PartialLIFO = true })},
			{"keep new SB on race loss", lockFree(func(c *core.Config) { c.KeepNewSBOnRaceLoss = true })},
			{"no per-heap partial slot", lockFree(func(c *core.Config) { c.NoPartialSlot = true })},
			{"4 partial slots per heap (§3.2.6 option)", lockFree(func(c *core.Config) { c.PartialSlots = 4 })},
			{"hyperblock batching (§3.2.5)", lockFree(func(c *core.Config) { c.Hyperblocks = true })},
		},
		workloads: []bench.Workload{cfg.linuxScalability(), cfg.larson()},
	}
}
