// Command allocmon runs a continuous malloc/free workload (churn.Mixed,
// as mlfstress) on one backend of the alloc registry, with the
// telemetry layer and allocation sampler attached, and serves live
// observability over HTTP: telemetry snapshots, censuses (the OS layer
// for every backend; fragmentation, live-block ages and call sites for
// lockfree; the order table for buddy), a Prometheus scrape endpoint,
// and a server-sent-event stream of periodic samples.
//
//	allocmon [-alloc lockfree] [-addr :8723] [-threads 4] [-hyper]
//	         [-pause 50us] [-interval 1s] [-samplerate 1024]
//	         [-history 120] [-magazine N] [-descstripes N]
//	         [-descalgo freelist|consttime]
//	allocmon -once [-warmup 2s]
//
// Endpoints:
//
//	/            text dashboard (telemetry snapshot + census)
//	/stats.json  full telemetry snapshot as JSON; ?base=<seq|last>
//	             subtracts an earlier series point (interval delta)
//	/events      flight-recorder events only, as JSON
//	/census.json latest full census as JSON, one key per part
//	/series.json the sampled census+snapshot ring, oldest first
//	/metrics     Prometheus text format (version 0.0.4)
//	/stream      server-sent events: one series point per sample tick
//
// What a census holds is up to the backend (alloc.Harness.Census) and
// how a part looks up to the part (internal/census); to watch two
// backends, run allocmon twice.
//
// -once skips the server: it warms up, prints the text dashboard to
// stdout, and exits (useful for smoke tests).
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
	"repro/internal/census"
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
	events int // flight-recorder events on the text dashboard

	mu   sync.Mutex
	subs map[chan telemetry.SeriesPoint]struct{}
}

func newMonitor(rec *telemetry.Recorder, a alloc.Allocator, history, events int) *monitor {
	return &monitor{
		rec:    rec,
		h:      alloc.HarnessOf(a),
		series: telemetry.NewSeries(history),
		events: events,
		subs:   make(map[chan telemetry.SeriesPoint]struct{}),
	}
}

// dashboard writes the text dashboard: the telemetry snapshot, then the
// census.
func (m *monitor) dashboard(w io.Writer) {
	fmt.Fprint(w, m.rec.Snapshot().Text(m.events))
	fmt.Fprintln(w, "\nCensus:")
	m.h.Census().WriteText(w)
}

// sampleOnce takes one snapshot+census pair, appends it to the series,
// and fans it out to /stream subscribers (dropping on slow consumers —
// the ring at /series.json is the lossless record).
func (m *monitor) sampleOnce() telemetry.SeriesPoint {
	snap := m.rec.Snapshot()
	snap.Events = nil // the series is numeric; /events serves the ring
	pt := m.series.Add(snap, m.h.Census())
	m.mu.Lock()
	for ch := range m.subs {
		select {
		case ch <- pt:
		default:
		}
	}
	m.mu.Unlock()
	return pt
}

func (m *monitor) subscribe() chan telemetry.SeriesPoint {
	ch := make(chan telemetry.SeriesPoint, 8)
	m.mu.Lock()
	m.subs[ch] = struct{}{}
	m.mu.Unlock()
	return ch
}

func (m *monitor) unsubscribe(ch chan telemetry.SeriesPoint) {
	m.mu.Lock()
	delete(m.subs, ch)
	m.mu.Unlock()
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
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		snap := m.rec.Snapshot()
		writeJSON(w, map[string]any{
			"eventsRecorded": snap.EventsRecorded,
			"events":         snap.Events,
		})
	})
	mux.HandleFunc("/census.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, m.h.Census())
	})
	mux.HandleFunc("/series.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, m.series.Points())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", census.ContentType)
		snap := m.rec.Snapshot()
		if err := census.WriteMetrics(w, snap, m.h.Census()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/stream", func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		ch := m.subscribe()
		defer m.unsubscribe(ch)
		// Send the latest point immediately so a fresh client sees data
		// before the next tick.
		if last, ok := m.series.Last(); ok {
			if !sendEvent(w, fl, last) {
				return
			}
		}
		for {
			select {
			case <-r.Context().Done():
				return
			case pt := <-ch:
				if !sendEvent(w, fl, pt) {
					return
				}
			}
		}
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

func sendEvent(w http.ResponseWriter, fl http.Flusher, pt telemetry.SeriesPoint) bool {
	data, err := json.Marshal(pt)
	if err != nil {
		return false
	}
	if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
		return false
	}
	fl.Flush()
	return true
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
		events     = fs.Int("events", 16, "flight-recorder events shown on the text dashboard")
		interval   = fs.Duration("interval", time.Second, "census sampling interval for /series.json and /stream")
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

	rec := core.NewRecorder(telemetry.Config{SampleRate: *sampleRate})
	a, _, err := af.New(core.Config{Processors: *threads, Hyperblocks: *hyper, Telemetry: rec}, alloc.Options{})
	if err != nil {
		return fail(err)
	}
	m := newMonitor(rec, a, *history, *events)

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
