// Command allocmon runs a continuous malloc/free workload on the
// lock-free allocator with the telemetry layer and allocation sampler
// attached, and serves live observability over HTTP: telemetry
// snapshots, heap censuses (fragmentation, live-block ages, call
// sites), a Prometheus scrape endpoint, and a server-sent-event stream
// of periodic samples.
//
//	allocmon [-addr :8723] [-threads 4] [-hyper] [-pause 50us]
//	         [-interval 1s] [-samplerate 1024] [-history 120]
//	         [-magazine N] [-arenas N] [-descstripes N]
//	         [-descalgo freelist|consttime] [-buddy]
//	allocmon -once [-warmup 2s]
//
// Endpoints:
//
//	/            text dashboard (telemetry snapshot + census summary)
//	/stats.json  full telemetry snapshot as JSON; ?base=<seq|last>
//	             subtracts an earlier series point (interval delta)
//	/events      flight-recorder events only, as JSON
//	/heap        allocator + heap + hyperblock statistics as JSON
//	/census.json latest full heap census as JSON
//	/series.json the sampled census+snapshot ring, oldest first
//	/metrics     Prometheus text format (version 0.0.4)
//	/stream      server-sent events: one series point per sample tick
//
// -buddy additionally runs the same churn (churn.Mixed, as mlfstress)
// on the non-blocking buddy allocator (internal/buddy); its per-order
// free/used block counts appear on the dashboard, as a "buddy" section
// in /census.json, and as buddy_* Prometheus families on /metrics.
//
// -once skips the server: it warms up, prints the text dashboard to
// stdout, and exits (useful for smoke tests).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/alloc"
	"repro/internal/bench"
	"repro/internal/buddy"
	"repro/internal/census"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// monitor owns the sampling loop and the HTTP surface, so tests can
// drive it through httptest without a listening socket or workload.
type monitor struct {
	rec    *telemetry.Recorder
	a      *core.Allocator
	series *telemetry.Series
	events int              // flight-recorder events on the text dashboard
	bud    *buddy.Allocator // nil unless -buddy

	mu   sync.Mutex
	subs map[chan telemetry.SeriesPoint]struct{}
}

func newMonitor(rec *telemetry.Recorder, a *core.Allocator, history, events int) *monitor {
	return &monitor{
		rec:    rec,
		a:      a,
		series: telemetry.NewSeries(history),
		events: events,
		subs:   make(map[chan telemetry.SeriesPoint]struct{}),
	}
}

// sampleOnce takes one snapshot+census pair, appends it to the series,
// and fans it out to /stream subscribers (dropping on slow consumers —
// the ring at /series.json is the lossless record).
func (m *monitor) sampleOnce() telemetry.SeriesPoint {
	snap := m.rec.Snapshot()
	snap.Events = nil // the series is numeric; /events serves the ring
	pt := m.series.Add(snap, m.census())
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

// census takes the core census and, under -buddy, attaches the buddy
// forest's order-occupancy section (served on /census.json, /series.json
// and rendered as buddy_* families on /metrics).
func (m *monitor) census() *census.Census {
	c := census.Take(m.a)
	if m.bud != nil {
		c.Buddy = census.TakeBuddy(m.bud)
	}
	return c
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
		fmt.Fprint(w, m.rec.Snapshot().Text(m.events))
		printHeapStats(w, m.a)
		c := m.census()
		printCensusSummary(w, c)
		printBuddySummary(w, c.Buddy)
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
	mux.HandleFunc("/heap", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{
			"stats":          m.a.Stats(),
			"hyper":          m.a.HyperStats(),
			"descStripes":    m.a.DescStripes(),
			"descStripeFree": m.a.DescStripeFree(),
		})
	})
	mux.HandleFunc("/census.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, m.census())
	})
	mux.HandleFunc("/series.json", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, m.series.Points())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", census.ContentType)
		snap := m.rec.Snapshot()
		if err := census.WriteMetrics(w, snap, m.census()); err != nil {
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

func main() {
	var (
		addr       = flag.String("addr", ":8723", "HTTP listen address")
		threads    = flag.Int("threads", 4, "workload goroutines")
		hyper      = flag.Bool("hyper", false, "enable the hyperblock layer")
		pause      = flag.Duration("pause", 50*time.Microsecond, "sleep between workload ops (0 = full speed)")
		once       = flag.Bool("once", false, "print one dashboard after -warmup and exit (no server)")
		warmup     = flag.Duration("warmup", 2*time.Second, "workload warmup before -once prints")
		events     = flag.Int("events", 16, "flight-recorder events shown on the text dashboard")
		interval   = flag.Duration("interval", time.Second, "census sampling interval for /series.json and /stream")
		sampleRate = flag.Int("samplerate", 1024, "allocation sampling period (mallocs per sample, 0 = off)")
		history    = flag.Int("history", 120, "series points retained")
		withBuddy  = flag.Bool("buddy", false, "run a second churn on the non-blocking buddy allocator and expose its order census")
		af         = bench.RegisterAllocFlags(flag.CommandLine)
	)
	flag.Parse()

	rec := core.NewRecorder(telemetry.Config{SampleRate: *sampleRate})
	cfg, err := af.Apply(core.Config{
		Processors:  *threads,
		Hyperblocks: *hyper,
		Telemetry:   rec,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "allocmon: %v\n", err)
		os.Exit(1)
	}
	a := core.New(cfg)
	m := newMonitor(rec, a, *history, *events)
	if *withBuddy {
		m.bud = buddy.New(buddy.Config{Telemetry: rec.Stripes()})
	}
	for g := 0; g < *threads; g++ {
		go churnForever(a.Thread(), int64(g), *pause)
		if m.bud != nil {
			go churnForever(m.bud.Thread(), int64(g), *pause)
		}
	}
	if *once {
		time.Sleep(*warmup)
		fmt.Print(rec.Snapshot().Text(*events))
		printHeapStats(os.Stdout, a)
		c := m.census()
		printCensusSummary(os.Stdout, c)
		printBuddySummary(os.Stdout, c.Buddy)
		return
	}

	go m.run(*interval, make(chan struct{}))

	fmt.Printf("allocmon: %d workload threads (hyper=%v pause=%v samplerate=%d), serving on %s\n",
		*threads, *hyper, *pause, *sampleRate, *addr)
	if err := http.ListenAndServe(*addr, m.mux()); err != nil {
		fmt.Fprintf(os.Stderr, "allocmon: %v\n", err)
		os.Exit(1)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func printHeapStats(w interface{ Write([]byte) (int, error) }, a *core.Allocator) {
	s := a.Stats()
	fmt.Fprintf(w, "allocator: mallocs=%d frees=%d active=%d partial=%d newSB=%d\n",
		s.Ops.Mallocs, s.Ops.Frees, s.Ops.FromActive, s.Ops.FromPartial, s.Ops.FromNewSB)
	fmt.Fprintf(w, "heap: live %d KiB, max-live %d KiB, descriptors %d (+%d free)\n",
		s.Heap.LiveWords*8/1024, s.Heap.MaxLiveWords*8/1024,
		s.DescsAllocated, s.DescsOnFreelist)
	fmt.Fprintf(w, "desc pool: %s backend, %d stripes, free per stripe %v\n",
		a.DescAlgo(), a.DescStripes(), a.DescStripeFree())
}

func printCensusSummary(w interface{ Write([]byte) (int, error) }, c *census.Census) {
	s := c.Summary()
	fmt.Fprintf(w, "census: %d superblocks, blocks used=%d free=%d magazine=%d\n",
		s.Superblocks, s.BlocksUsed, s.BlocksFree, s.MagazineCached)
	if s.InternalFragPct >= 0 {
		fmt.Fprintf(w, "frag: internal %.1f%% external %.1f%%; %d live samples, age p50=%v p99=%v oldest=%v\n",
			s.InternalFragPct, s.ExternalFragPct, s.LiveSamples,
			time.Duration(s.AgeP50NS), time.Duration(s.AgeP99NS), time.Duration(s.OldestNS))
	} else {
		fmt.Fprintf(w, "frag: external %.1f%% (sampler off)\n", s.ExternalFragPct)
	}
}

// printBuddySummary appends the buddy forest's order-occupancy table
// to the text dashboard; no-op without -buddy.
func printBuddySummary(w interface{ Write([]byte) (int, error) }, bc *census.BuddyCensus) {
	if bc == nil {
		return
	}
	fmt.Fprintf(w, "buddy: %d trees x %d words, frees coalesced to ext-frag %.1f%%, %d coal bits\n",
		bc.Trees, bc.TreeWords, 100*bc.ExternalFragRatio, bc.CoalBits)
	for _, o := range bc.Orders {
		if o.Free == 0 && o.Used == 0 {
			continue
		}
		fmt.Fprintf(w, "buddy: order %d (%d words): free=%d used=%d\n",
			o.Order, o.BlockWords, o.Free, o.Used)
	}
}

// churnForever is the embedded workload: churn.Mixed traffic on one
// handle until the process exits, pausing every 64 operations.
func churnForever(th alloc.Thread, seed int64, pause time.Duration) {
	d := churn.New(th, seed, churn.Mixed)
	for i := 0; ; i++ {
		if err := d.Step(); err != nil {
			fmt.Fprintf(os.Stderr, "allocmon: malloc: %v\n", err)
			os.Exit(1)
		}
		if pause > 0 && i%64 == 0 {
			time.Sleep(pause)
		}
	}
}
