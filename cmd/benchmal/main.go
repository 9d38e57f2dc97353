// Command benchmal regenerates the tables and figures of the paper's
// evaluation section (§4) over the six allocators in this repository.
//
// Usage:
//
//	benchmal [-exp all|id,id,...] [-threads 1,2,4,8,16] [-scale 0.01]
//	         [-allocs lockfree,hoard,...] [-procs N] [-telemetry] [-magazine N]
//	         [-samplerate N] [-json] [-list] [-v]
//
// -list prints the experiment ids; -list -v adds what each one is: its
// thread counts and reference, and its workloads (parameters at the
// given -scale), subjects and columns. Every number printed is the best
// of three runs on fresh allocators; -v prints each run as it is taken.
// -allocs narrows every experiment to the named allocators, those that
// name their own subjects included (the serial reference of a speedup
// always runs).
//
// -scale 1.0 runs the paper's full parameters (10M malloc/free pairs
// per thread, 30-second timed phases); the default 0.01 finishes each
// experiment in seconds and preserves the qualitative shape.
//
// -telemetry (default on) hands every allocator a telemetry recorder:
// the lock-free allocator's measurement lines then carry CAS retries/op
// and malloc latency quantiles, the buddy's its CAS-retry sites, and
// the lock-based baselines ignore it; -telemetry=false measures the
// bare allocator. -samplerate N enables the allocation sampler (one
// sample per N mallocs) on every recorder, adding a census digest —
// fragmentation and live-block ages — to each measurement (0 = off, the
// default, preserving the bare telemetry cost).
//
// The shape flag applies to every lock-free allocator built: -magazine N
// is Config.MagazineSize. The experiment that compares its settings
// (magazine; census for -samplerate) sets it per row; a -magazine or
// -samplerate given is what its "on" row uses.
//
// An out-of-range value (core.Config.Validate), a -scale that is not a
// finite number above 0, a negative -samplerate and an unknown -exp id
// exit non-zero before anything runs, with the reason on stderr and
// nothing on stdout.
//
// -json additionally writes every individual measurement to a
// BENCH_<unixtime>.json file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/alloc"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/report"
)

// jsonReport is the schema of the BENCH_*.json file: run parameters
// plus every individual measurement in the order taken.
type jsonReport struct {
	TakenUnixNano int64          `json:"takenUnixNano"`
	GoMaxProcs    int            `json:"gomaxprocs"`
	NumCPU        int            `json:"numcpu"`
	Scale         float64        `json:"scale"`
	Threads       []int          `json:"threads"`
	Experiments   []string       `json:"experiments"`
	Telemetry     bool           `json:"telemetry"`
	Magazine      int            `json:"magazine,omitempty"`
	SampleRate    int            `json:"sampleRate,omitempty"`
	Results       []bench.Result `json:"results"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmal", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag     = fs.String("exp", "all", "experiment id (or comma list, or 'all')")
		threadsFlag = fs.String("threads", "1,2,4,8,16", "comma-separated thread counts")
		scaleFlag   = fs.Float64("scale", 0.01, "fraction of the paper's full parameters (1.0 = full)")
		allocsFlag  = fs.String("allocs", "", "comma-separated allocators (default: all)")
		procsFlag   = fs.Int("procs", 0, "processor heaps per allocator (default: max threads)")
		teleFlag    = fs.Bool("telemetry", true, "hand every allocator a telemetry recorder (retries/op and latency per lock-free row, CAS-retry sites per buddy row)")
		allocFlags  = bench.RegisterAllocFlags(fs)
		rateFlag    = fs.Int("samplerate", 0, "allocation sampling period for census columns (0 = sampler off)")
		jsonFlag    = fs.Bool("json", false, "write all measurements to a BENCH_<unixtime>.json file")
		listFlag    = fs.Bool("list", false, "list experiments and exit")
		verboseFlag = fs.Bool("v", false, "print every individual measurement; with -list, what each experiment measures")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "benchmal: "+format+"\n", args...)
		return 1
	}

	shape, err := allocFlags.Apply(core.Config{Processors: *procsFlag})
	if err != nil {
		return fail("%v", err)
	}
	threads, err := parseInts(*threadsFlag)
	if err != nil {
		return fail("invalid -threads: %v", err)
	}
	// !(x > 0) is also true of NaN.
	if !(*scaleFlag > 0) || math.IsInf(*scaleFlag, 0) {
		return fail("invalid -scale %g: want a finite fraction > 0", *scaleFlag)
	}
	if *rateFlag < 0 {
		return fail("invalid -samplerate %d: want 0 (off) or a period >= 1", *rateFlag)
	}
	cfg := report.RunConfig{
		Threads:    threads,
		Scale:      *scaleFlag,
		Options:    alloc.Options{Processors: *procsFlag, HeapConfig: shape.HeapConfig, LockFree: shape},
		Telemetry:  *teleFlag,
		SampleRate: *rateFlag,
	}
	if *allocsFlag != "" {
		cfg.Allocators = strings.Split(*allocsFlag, ",")
	}
	var results []bench.Result
	cfg.Record = func(r bench.Result) {
		results = append(results, r)
		if *verboseFlag {
			fmt.Fprintf(stdout, "# %s\n", r)
		}
	}

	var exps []report.Experiment
	if *expFlag == "all" {
		exps = report.Experiments(cfg)
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := report.ByID(cfg, strings.TrimSpace(id))
			if !ok {
				return fail("unknown experiment %q (use -list)", id)
			}
			exps = append(exps, e)
		}
	}

	if *listFlag {
		list(stdout, report.Experiments(cfg), *verboseFlag)
		return 0
	}

	fmt.Fprintf(stdout, "benchmal: GOMAXPROCS=%d NumCPU=%d scale=%g threads=%v\n\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), *scaleFlag, threads)

	for _, e := range exps {
		fmt.Fprintf(stdout, "==== %s: %s ====\n", e.ID, e.Title)
		fmt.Fprintf(stdout, "paper: %s\n\n", e.Paper)
		if err := e.Run(stdout); err != nil {
			return fail("%s: %v", e.ID, err)
		}
		fmt.Fprintln(stdout)
	}

	if *jsonFlag {
		ids := make([]string, len(exps))
		for i, e := range exps {
			ids[i] = e.ID
		}
		rep := jsonReport{
			TakenUnixNano: time.Now().UnixNano(),
			GoMaxProcs:    runtime.GOMAXPROCS(0),
			NumCPU:        runtime.NumCPU(),
			Scale:         *scaleFlag,
			Threads:       threads,
			Experiments:   ids,
			Telemetry:     *teleFlag,
			Magazine:      shape.MagazineSize,
			SampleRate:    *rateFlag,
			Results:       results,
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail("marshal results: %v", err)
		}
		name := fmt.Sprintf("BENCH_%d.json", time.Now().Unix())
		if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
			return fail("write %s: %v", name, err)
		}
		fmt.Fprintf(stdout, "wrote %d measurements to %s\n", len(results), name)
	}
	return 0
}

// list prints one line per experiment, and under it, if verbose, what
// the experiment measures.
func list(w io.Writer, exps []report.Experiment, verbose bool) {
	for _, e := range exps {
		fmt.Fprintf(w, "%-8s %s\n", e.ID, e.Title)
		if verbose {
			fmt.Fprint(w, e.Describe())
		}
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("thread count %d < 1", n)
		}
		out = append(out, n)
	}
	return out, nil
}
