// Command allocmon runs a continuous malloc/free workload (churn.Mixed,
// as mlfstress) on one backend of the alloc registry, with the
// telemetry layer and allocation sampler attached, and serves live
// observability over HTTP: telemetry snapshots, censuses (the OS layer
// for every backend; fragmentation, live-block ages and call sites for
// lockfree; the order table for buddy) and a ring of periodic samples.
//
//	allocmon [-alloc lockfree] [-addr :8723] [-threads 4] [-hyper]
//	         [-pause 50us] [-interval 1s] [-samplerate 1024]
//	         [-history 120] [-magazine N]
//	allocmon -once [-warmup 2s]
//
// Endpoints:
//
//	/            text dashboard (telemetry snapshot + census)
//	/stats.json  full telemetry snapshot as JSON; ?base=<seq|last>
//	             subtracts an earlier series point (interval delta)
//	/census.json latest full census as JSON, one key per part
//	/series.json the sampled census+snapshot ring, oldest first
//
// What a census holds is up to the backend (alloc.Harness.Census) and
// how a part looks up to the part (internal/census); to watch two
// backends, run allocmon twice.
//
// -once skips the server: it warms up, prints the text dashboard to
// stdout, and exits (useful for smoke tests).
//
// A knob core.Config.Validate rejects, an unknown backend, -threads
// below 1, a non-positive -interval, -history below 1, or a negative
// -samplerate exits 1 with the reason before the allocator is built.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/alloc"
	"repro/internal/bench"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// monitor owns the sampling loop and the HTTP surface, so tests can
// drive it through httptest without a listening socket or workload.
type monitor struct {
	rec    *telemetry.Recorder
	h      alloc.Harness
	series *telemetry.Series
}

func newMonitor(rec *telemetry.Recorder, a alloc.Allocator, history int) *monitor {
	return &monitor{
		rec:    rec,
		h:      alloc.HarnessOf(a),
		series: telemetry.NewSeries(history),
	}
}

// dashboard writes the text dashboard: the telemetry snapshot, then the
// census.
func (m *monitor) dashboard(w io.Writer) {
	fmt.Fprint(w, m.rec.Snapshot().Text())
	fmt.Fprintln(w, "\nCensus:")
	m.h.Census().WriteText(w)
}

// sampleOnce takes one snapshot+census pair and appends it to the
// series.
func (m *monitor) sampleOnce() telemetry.SeriesPoint {
	return m.series.Add(m.rec.Snapshot(), m.h.Census())
}

// run samples every interval until stop closes.
func (m *monitor) run(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			m.sampleOnce()
		}
	}
}

func (m *monitor) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		m.dashboard(w)
	})
	mux.HandleFunc("/stats.json", func(w http.ResponseWriter, r *http.Request) {
		snap := m.rec.Snapshot()
		if base := r.URL.Query().Get("base"); base != "" {
			pt, ok := m.basePoint(base)
			if !ok {
				http.Error(w, fmt.Sprintf("base %q: no such series point (retained: %d)", base, m.series.Len()),
					http.StatusBadRequest)
				return
			}
			snap = snap.Sub(pt.Snapshot)
		}
		data, err := snap.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(data, '\n'))
	})
	mux.HandleFunc("/census.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, m.h.Census())
	})
	mux.HandleFunc("/series.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, m.series.Points())
	})
	return mux
}

// basePoint resolves a ?base= value: "last" for the newest series
// point, otherwise a series sequence number.
func (m *monitor) basePoint(base string) (telemetry.SeriesPoint, bool) {
	if base == "last" {
		return m.series.Last()
	}
	seq, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return telemetry.SeriesPoint{}, false
	}
	return m.series.Get(seq)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("allocmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8723", "HTTP listen address")
		threads    = fs.Int("threads", 4, "workload goroutines")
		hyper      = fs.Bool("hyper", false, "enable the hyperblock layer")
		pause      = fs.Duration("pause", 50*time.Microsecond, "sleep between workload ops (0 = full speed)")
		once       = fs.Bool("once", false, "print one dashboard after -warmup and exit (no server)")
		warmup     = fs.Duration("warmup", 2*time.Second, "workload warmup before -once prints")
		interval   = fs.Duration("interval", time.Second, "census sampling interval for /series.json")
		sampleRate = fs.Int("samplerate", 1024, "allocation sampling period (mallocs per sample, 0 = off)")
		history    = fs.Int("history", 120, "series points retained")
		af         = bench.RegisterBackendFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "allocmon: %v\n", err)
		return 1
	}
	switch {
	case *threads < 1:
		return fail(fmt.Errorf("-threads must be at least 1, got %d", *threads))
	case *interval <= 0:
		return fail(fmt.Errorf("-interval must be positive, got %v", *interval))
	case *history < 1:
		return fail(fmt.Errorf("-history must be at least 1, got %d", *history))
	case *sampleRate < 0:
		return fail(fmt.Errorf("-samplerate must not be negative, got %d", *sampleRate))
	}

	rec := core.NewRecorder(telemetry.Config{SampleRate: *sampleRate})
	a, _, err := af.New(core.Config{Processors: *threads, Hyperblocks: *hyper, Telemetry: rec}, alloc.Options{})
	if err != nil {
		return fail(err)
	}
	m := newMonitor(rec, a, *history)

	// The embedded workload runs until run returns; the first error, a
	// worker's Malloc or the server's, ends the command.
	stop := make(chan struct{})
	errs := make(chan error, *threads+1) // one send each at most
	var workers sync.WaitGroup
	defer func() {
		close(stop)
		workers.Wait()
	}()
	for g := 0; g < *threads; g++ {
		workers.Add(1)
		go func(th alloc.Thread, seed int64) {
			defer workers.Done()
			if err := churnUntil(stop, th, seed, *pause); err != nil {
				errs <- fmt.Errorf("malloc: %w", err)
			}
		}(a.NewThread(), int64(g))
	}
	if *once {
		// The dashboard is taken with the workload still running, so the
		// census has live blocks to count.
		select {
		case err := <-errs:
			return fail(err)
		case <-time.After(*warmup):
		}
		m.dashboard(stdout)
		return 0
	}

	go m.run(*interval, stop)
	go func() { errs <- http.ListenAndServe(*addr, m.mux()) }()
	fmt.Fprintf(stdout, "allocmon: %s, %d workload threads (hyper=%v pause=%v samplerate=%d), serving on %s\n",
		a.Name(), *threads, *hyper, *pause, *sampleRate, *addr)
	return fail(<-errs)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// churnUntil is the embedded workload: churn.Mixed traffic on one
// handle until stop closes, pausing every 64 operations; the live set
// is freed on the way out.
func churnUntil(stop <-chan struct{}, th alloc.Thread, seed int64, pause time.Duration) error {
	d := churn.New(th, seed, churn.Mixed)
	defer d.Drain()
	for i := 0; ; i++ {
		if err := d.Step(); err != nil {
			return err
		}
		if i%64 == 0 {
			select {
			case <-stop:
				return nil
			default:
			}
			if pause > 0 {
				time.Sleep(pause)
			}
		}
	}
}
