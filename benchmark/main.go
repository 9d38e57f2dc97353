// Command benchmark is the repository's measuring stick: four
// closed-loop workloads against the public alloc API, the end-to-end
// metrics of BENCHMARK.json checked for correctness, and (with -trace 1)
// a traced run that prices every layer on its own. See README.md.
//
//	go run ./benchmark                               all workloads, end to end
//	go run ./benchmark -trace 1                      ladder, counts, spans, attribution
//	go run ./benchmark -sets 2                       noise self-check against the bounds
//	go run ./benchmark -workload larson -seed 7 -seconds 24 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one row of BENCHMARK.json; the table below is the single
// source of names, units, directions and bounds (a test compares the
// JSON file against it).
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metric{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ns", "ns", "lower", 0.25},
	{"op_p90_ns", "ns", "lower", 0.25},
	{"peak_heap_bytes", "B", "lower", 0.05},
	{"space_blowup", "ratio", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the machine-readable result: the last line of standard output.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	rounds   int
	trace    int
	sets     int
	fault    faultKind
	outDir   string
}

// timerOverheadNS is what two back-to-back clock reads measure; it is
// set once before any pass and taken off every timed sample.
var timerOverheadNS float64

func calibrateTimer() {
	const n = 200000
	var h hist
	for i := 0; i < n; i++ {
		t := now()
		h.add(now() - t)
	}
	timerOverheadNS = h.quantile(0.5)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var fault string
	fs.StringVar(&o.workload, "workload", "all", "larson, churn, prodcons, kvcache or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs; round r uses seed+r")
	fs.Float64Var(&o.seconds, "seconds", 24, "measured seconds per workload, split over the rounds")
	fs.IntVar(&o.rounds, "rounds", 24, "rounds per workload, each on a fresh allocator")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	fs.IntVar(&o.sets, "sets", 1, "repeat the end-to-end pass and fail if two sets differ by more than a bound")
	fs.StringVar(&fault, "fault", "", "self-test: inject a fault (canary or leak) that the checks must catch")
	fs.StringVar(&o.outDir, "out", "benchmark/out", "directory for the span files of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	if o.fault, err = parseFault(fault); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var wls []*workload
	if o.workload == "all" {
		wls = workloads
	} else if wl := findWorkload(o.workload); wl != nil {
		wls = []*workload{wl}
	} else {
		fmt.Fprintf(stderr, "unknown -workload %q\n", o.workload)
		return 2
	}
	if o.seconds <= 0 || o.rounds < 1 || o.sets < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds, -rounds and -sets must be positive; no positional arguments")
		return 2
	}

	// The simulated heap is made of Go slices: collecting between rounds
	// (runRound does) keeps the collector out of the timed windows.
	debug.SetGCPercent(-1)
	calibrateTimer()
	printHeader(stdout, &o)

	rep := report{Correct: true, Metrics: map[string]value{}}
	prefix := func(wl *workload) string {
		if len(wls) == 1 {
			return ""
		}
		return wl.name + "/"
	}
	add := func(wl *workload, attempted, failed uint64, vals []namedValue) {
		rep.Attempted += attempted
		rep.Failed += failed
		for _, v := range vals {
			rep.Metrics[prefix(wl)+v.name] = value{v.v, v.unit}
		}
	}

	if o.trace != 0 {
		global := runLadder(stdout, ladderSlice(&o))
		if err := topRungs(stdout, &o, global); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		for _, wl := range wls {
			tr, err := tracedRun(stdout, wl, &o, global)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			add(wl, tr.attempted, tr.failed, tr.values)
		}
	} else {
		var sets []map[string]float64
		for set := 0; set < o.sets; set++ {
			if o.sets > 1 {
				fmt.Fprintf(stdout, "\n== set %d of %d ==\n", set+1, o.sets)
			}
			flat := map[string]float64{}
			for _, wl := range wls {
				cfg := e2eConfig(wl, &o)
				res, err := runPass(&cfg)
				if err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
				printPass(stdout, wl, &cfg, &res)
				vals := res.endToEnd()
				add(wl, res.attempted, res.failed, vals)
				for _, v := range vals {
					flat[wl.name+"/"+v.name] = v.v
				}
			}
			sets = append(sets, flat)
		}
		if o.sets > 1 {
			rep.Attempted /= uint64(o.sets)
			rep.Failed = (rep.Failed + uint64(o.sets) - 1) / uint64(o.sets)
			if !compareSets(stdout, sets) {
				rep.Correct = false
			}
		}
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\n%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

func printHeader(w io.Writer, o *options) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g rounds=%d timer_overhead=%.1fns\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, o.seed, o.seconds, o.rounds, timerOverheadNS)
}

// e2eConfig is the end-to-end pass: time-bounded rounds, recorder
// detached, no spans, the first tenth of every round discarded.
func e2eConfig(wl *workload, o *options) passConfig {
	round := time.Duration(o.seconds / float64(o.rounds) * float64(time.Second))
	return passConfig{
		wl: wl, seed: o.seed, threads: wl.threads(runtime.NumCPU()),
		rounds: o.rounds, round: round, warm: round / 10, fault: o.fault,
	}
}

// passResult aggregates the rounds of one pass.
type passResult struct {
	rounds    []roundResult
	units     uint64
	seconds   float64
	hist      hist
	attempted uint64
	failed    uint64
}

func runPass(cfg *passConfig) (passResult, error) {
	var p passResult
	for r := 0; r < cfg.rounds; r++ {
		res, err := runRound(cfg, r)
		if err != nil {
			return p, err
		}
		p.units += res.units
		p.seconds += res.seconds
		p.attempted += res.attempted
		p.failed += res.failed
		p.hist.merge(&res.hist)
		p.rounds = append(p.rounds, res)
	}
	if p.units == 0 {
		return p, fmt.Errorf("%s: no unit completed inside a timed window (rounds too short)", cfg.wl.name)
	}
	return p, nil
}

// opsPerS is total units in all timed windows ÷ total timed seconds:
// the mean over rounds, weighted by window length.
func (p *passResult) opsPerS() float64 {
	var sum float64
	for _, r := range p.rounds {
		sum += r.rate * r.seconds
	}
	return sum / p.seconds
}

func (p *passResult) perRound(f func(*roundResult) float64) []float64 {
	out := make([]float64, len(p.rounds))
	for i := range p.rounds {
		out[i] = f(&p.rounds[i])
	}
	sort.Float64s(out)
	return out
}

// quartile returns the q-quantile of sorted xs by linear interpolation.
func quartile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (xs[i+1]-xs[i])*(pos-float64(i))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantileNS is a quantile of the samples pooled over all rounds, with
// the timer overhead removed.
func (p *passResult) quantileNS(q float64) float64 {
	return math.Max(p.hist.quantile(q)-timerOverheadNS, 0)
}

type namedValue struct {
	name string
	v    float64
	unit string
}

// e2eStats are the per-round values behind the end-to-end metrics,
// each sorted. A service-time metric is the median over the rounds of
// the round's own quantile: one disturbed round cannot move it. The two
// space metrics are means: a round's peak moves in whole superblocks,
// which a maximum over rounds would keep.
type e2eStats struct {
	rate, q50, q90, q99, heap, blowup, setup []float64
}

func (p *passResult) stats() e2eStats {
	return e2eStats{
		rate:   p.perRound(func(r *roundResult) float64 { return r.rate }),
		q50:    p.perRound(func(r *roundResult) float64 { return r.q50 }),
		q90:    p.perRound(func(r *roundResult) float64 { return r.q90 }),
		q99:    p.perRound(func(r *roundResult) float64 { return r.q99 }),
		heap:   p.perRound(func(r *roundResult) float64 { return float64(r.peakHeap) }),
		blowup: p.perRound(func(r *roundResult) float64 { return float64(r.peakHeap) / float64(r.peakReq) }),
		setup:  p.perRound(func(r *roundResult) float64 { return r.setupS }),
	}
}

// endToEnd computes the metrics of BENCHMARK.json's end_to_end list.
func (p *passResult) endToEnd() []namedValue {
	st := p.stats()
	vals := map[string]float64{
		"ops_per_s":       p.opsPerS(),
		"op_p50_ns":       quartile(st.q50, 0.5),
		"op_p90_ns":       quartile(st.q90, 0.5),
		"peak_heap_bytes": mean(st.heap),
		"space_blowup":    mean(st.blowup),
		"setup_s":         quartile(st.setup, 0.5),
	}
	out := make([]namedValue, len(endToEnd))
	for i, m := range endToEnd {
		out[i] = namedValue{m.Name, vals[m.Name], m.Unit}
	}
	return out
}

func printPass(w io.Writer, wl *workload, cfg *passConfig, p *passResult) {
	st := p.stats()
	spread := map[string][]float64{"ops_per_s": st.rate, "op_p50_ns": st.q50, "op_p90_ns": st.q90,
		"peak_heap_bytes": st.heap, "space_blowup": st.blowup, "setup_s": st.setup}
	fmt.Fprintf(w, "\n%s: threads=%d rounds=%d x %v (first %v discarded), %d timed samples\n",
		wl.name, cfg.threads, cfg.rounds, cfg.round, cfg.warm, p.hist.n)
	for _, v := range p.endToEnd() {
		xs := spread[v.name]
		fmt.Fprintf(w, "  %-18s %14.6g %-6s  rounds q1=%.4g median=%.4g q3=%.4g\n",
			v.name, v.v, v.unit, quartile(xs, 0.25), quartile(xs, 0.5), quartile(xs, 0.75))
	}
	fmt.Fprintf(w, "  %-18s %14.6g %-6s  rounds q1=%.4g median=%.4g q3=%.4g; pooled p99=%.4g p99.9=%.4g\n", "(op_p99_ns)",
		quartile(st.q99, 0.5), "ns", quartile(st.q99, 0.25), quartile(st.q99, 0.5), quartile(st.q99, 0.75), p.quantileNS(0.99), p.quantileNS(0.999))
	fmt.Fprintf(w, "  %-18s %14.6g %-6s  %d failed of %d attempted\n", "failed_ratio",
		float64(p.failed)/float64(max(p.attempted, 1)), "ratio", p.failed, p.attempted)
	for i, r := range p.rounds {
		for _, e := range r.errs {
			fmt.Fprintf(w, "  round %d: %s\n", i, e)
		}
	}
}

// compareSets fails when a metric differs between two sets by more than
// its own bound.
func compareSets(w io.Writer, sets []map[string]float64) bool {
	ok := true
	fmt.Fprintf(w, "\nnoise self-check over %d sets\n", len(sets))
	for _, wl := range workloads {
		for _, m := range endToEnd {
			key := wl.name + "/" + m.Name
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, s := range sets {
				v, found := s[key]
				if !found {
					continue
				}
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			if math.IsInf(lo, 0) {
				continue
			}
			spread := (hi - lo) / lo
			verdict := "ok"
			if spread > m.Bound {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Fprintf(w, "  %-28s min=%-12.6g max=%-12.6g spread=%.4f bound=%.2f %s\n", key, lo, hi, spread, m.Bound, verdict)
		}
	}
	return ok
}
