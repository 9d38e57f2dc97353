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
// is Config.MagazineSize. An out-of-range value (core.Config.Validate)
// exits non-zero with the reason before anything runs. The experiment
// that compares its settings (magazine; census for -samplerate) sets it
// per row; a -magazine or -samplerate given is what its "on" row uses.
//
// -json additionally writes every individual measurement to a
// BENCH_<unixtime>.json file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
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

func main() {
	var (
		expFlag     = flag.String("exp", "all", "experiment id (or comma list, or 'all')")
		threadsFlag = flag.String("threads", "1,2,4,8,16", "comma-separated thread counts")
		scaleFlag   = flag.Float64("scale", 0.01, "fraction of the paper's full parameters (1.0 = full)")
		allocsFlag  = flag.String("allocs", "", "comma-separated allocators (default: all)")
		procsFlag   = flag.Int("procs", 0, "processor heaps per allocator (default: max threads)")
		teleFlag    = flag.Bool("telemetry", true, "hand every allocator a telemetry recorder (retries/op and latency per lock-free row, CAS-retry sites per buddy row)")
		allocFlags  = bench.RegisterAllocFlags(flag.CommandLine)
		rateFlag    = flag.Int("samplerate", 0, "allocation sampling period for census columns (0 = sampler off)")
		jsonFlag    = flag.Bool("json", false, "write all measurements to a BENCH_<unixtime>.json file")
		listFlag    = flag.Bool("list", false, "list experiments and exit")
		verboseFlag = flag.Bool("v", false, "print every individual measurement; with -list, what each experiment measures")
	)
	flag.Parse()

	shape, err := allocFlags.Apply(core.Config{Processors: *procsFlag})
	if err != nil {
		fatal("%v", err)
	}

	threads, err := parseInts(*threadsFlag)
	if err != nil {
		fatal("invalid -threads: %v", err)
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

	if *listFlag {
		list(os.Stdout, report.Experiments(cfg), *verboseFlag)
		return
	}

	var results []bench.Result
	cfg.Record = func(r bench.Result) {
		results = append(results, r)
		if *verboseFlag {
			fmt.Printf("# %s\n", r)
		}
	}

	var ids []string
	if *expFlag == "all" {
		for _, e := range report.Experiments(cfg) {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*expFlag, ",")
	}

	fmt.Printf("benchmal: GOMAXPROCS=%d NumCPU=%d scale=%g threads=%v\n\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), *scaleFlag, threads)

	for _, id := range ids {
		e, ok := report.ByID(cfg, strings.TrimSpace(id))
		if !ok {
			fatal("unknown experiment %q (use -list)", id)
		}
		fmt.Printf("==== %s: %s ====\n", e.ID, e.Title)
		fmt.Printf("paper: %s\n\n", e.Paper)
		if err := e.Run(os.Stdout); err != nil {
			fatal("%s: %v", e.ID, err)
		}
		fmt.Println()
	}

	if *jsonFlag {
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
			fatal("marshal results: %v", err)
		}
		name := fmt.Sprintf("BENCH_%d.json", time.Now().Unix())
		if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
			fatal("write %s: %v", name, err)
		}
		fmt.Printf("wrote %d measurements to %s\n", len(results), name)
	}
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

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmal: "+format+"\n", args...)
	os.Exit(1)
}
