package report

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/alloc"
	"repro/internal/bench"
)

func TestTableRender(t *testing.T) {
	tab := Table{
		Title:   "demo",
		Columns: []string{"name", "v1", "v2"},
		Rows: [][]string{
			{"alpha", "1.00", "2.00"},
			{"beta-longer", "10.50", "0.25"},
		},
		Notes: []string{"a note"},
	}
	out := tab.Render()
	for _, want := range []string{"demo", "name", "alpha", "beta-longer", "10.50", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header underline plus aligned rows: all data lines equal width
	// is too strict, but the header separator must exist.
	found := false
	for _, l := range lines {
		if strings.HasPrefix(l, "---") {
			found = true
		}
	}
	if !found {
		t.Error("no header separator")
	}
}

func TestFigureThreadsUnion(t *testing.T) {
	f := Figure{Series: []Series{
		{Name: "a", Points: []Point{{1, 1}, {4, 2}}},
		{Name: "b", Points: []Point{{2, 1}, {4, 3}}},
	}}
	got := f.Threads()
	want := []int{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("Threads = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Threads = %v, want %v", got, want)
		}
	}
}

func TestSeriesValue(t *testing.T) {
	s := Series{Name: "x", Points: []Point{{1, 1.5}, {8, 3.0}}}
	if v, ok := s.Value(8); !ok || v != 3.0 {
		t.Errorf("Value(8) = %v, %v", v, ok)
	}
	if _, ok := s.Value(2); ok {
		t.Error("Value(2) should be absent")
	}
}

func TestFigurePlotContainsMarkers(t *testing.T) {
	f := Figure{
		Title:  "test-figure",
		YLabel: "speedup",
		Series: []Series{
			{Name: "lockfree", Points: []Point{{1, 1}, {2, 2}, {4, 4}}},
			{Name: "serial", Points: []Point{{1, 1}, {2, 0.5}, {4, 0.3}}},
		},
	}
	out := f.Render()
	if !strings.Contains(out, "L") || !strings.Contains(out, "S") {
		t.Errorf("plot missing series markers:\n%s", out)
	}
	if !strings.Contains(out, "test-figure") {
		t.Error("plot missing title")
	}
	if !strings.Contains(out, "4.00") {
		t.Error("plot missing y-axis max")
	}
	// Data table follows the plot.
	if !strings.Contains(out, "threads") {
		t.Error("missing data table")
	}
}

func TestFigurePlotEmpty(t *testing.T) {
	f := Figure{Title: "empty"}
	if out := f.plot(); !strings.Contains(out, "no data") {
		t.Errorf("empty plot = %q", out)
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments(RunConfig{}) {
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
		if err := e.spec.check(); err != nil {
			t.Errorf("experiment %q: %v", e.ID, err)
		}
		if e.Title == "" {
			t.Errorf("experiment %q has no title", e.ID)
		}
	}
	// The paper's evaluation artifacts must all be present.
	for _, want := range []string{
		"table1", "fig8a", "fig8b", "fig8c", "fig8d",
		"fig8e", "fig8f", "fig8g", "fig8h",
		"latency", "space", "unip", "ablate",
	} {
		if !ids[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
	if _, ok := ByID(RunConfig{}, "fig8a"); !ok {
		t.Error("ByID(fig8a) failed")
	}
	if _, ok := ByID(RunConfig{}, "nope"); ok {
		t.Error("ByID(nope) succeeded")
	}
}

// TestRunRoundRobin: run takes a cell's repetitions in rounds over all
// the cells of a spec, the reference included, never back to back.
func TestRunRoundRobin(t *testing.T) {
	var order []string
	cfg := RunConfig{Threads: []int{1}, Scale: 0.0002}.withDefaults()
	cfg.Record = func(r bench.Result) { order = append(order, r.Allocator) }
	s := spec{
		layout: bySubject, subjects: []subject{{name: "lockfree"}, {name: "hoard"}},
		workloads: []bench.Workload{bench.LinuxScalability{Pairs: 100, Size: 8}}, threads: []int{1}, ref: libc, columns: []column{opsColumn},
	}
	if err := run(cfg, s, io.Discard); err != nil {
		t.Fatal(err)
	}
	round := []string{"serial", "lockfree", "hoard"}
	if want := slices.Concat(round, round, round); !slices.Equal(order, want) {
		t.Errorf("runs in order %v, want %v", order, want)
	}
}

// scripted is a workload whose runs return the next result of a script.
type scripted struct {
	runs []bench.Result
	next *int
}

func (w scripted) Name() string { return "scripted" }

func (w scripted) Run(a alloc.Allocator, threads int) bench.Result {
	r := w.runs[*w.next%len(w.runs)]
	*w.next++
	r.Workload, r.Allocator, r.Threads = w.Name(), a.Name(), threads
	return r
}

// TestSpaceColumnsTakeTheMedian: a cell's ops/s is its fastest run's,
// its space columns the median of its runs with their min–max, whichever
// run was fastest — here the one with the least memory.
func TestSpaceColumnsTakeTheMedian(t *testing.T) {
	w := scripted{next: new(int), runs: []bench.Result{
		{Ops: 3000, Elapsed: time.Second, MaxLiveBytes: 100, HeldBytes: 10 << 10},
		{Ops: 1000, Elapsed: time.Second, MaxLiveBytes: 300, HeldBytes: 30 << 10},
		{Ops: 2000, Elapsed: time.Second, MaxLiveBytes: 200, HeldBytes: 20 << 10},
	}}
	held := column{name: "held KiB", value: func(r, _ bench.Result) float64 { return float64(r.HeldBytes / 1024) }, space: true}
	s := spec{
		layout: bySubject, head: "allocator", subjects: []subject{{name: "lockfree"}},
		workloads: []bench.Workload{w}, threads: []int{1}, columns: []column{opsColumn, maxLiveColumn, held},
	}
	var buf bytes.Buffer
	if err := run(RunConfig{Threads: []int{1}, Scale: 0.0002}.withDefaults(), s, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"3000", "200 (100–300)", "20 (10–30)"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table lacks %q:\n%s", want, buf.String())
		}
	}
}

// TestMalformedSpecRejected: run refuses, before measuring anything, a
// spec it could not run or lay out.
func TestMalformedSpecRejected(t *testing.T) {
	cfg := RunConfig{Threads: []int{1}, Scale: 0.0002}.withDefaults()
	good := spec{
		layout: bySubject, subjects: []subject{{name: "lockfree"}},
		workloads: []bench.Workload{bench.LinuxScalability{Pairs: 100, Size: 8}}, threads: []int{1}, ref: libc, columns: []column{opsColumn},
	}
	if err := good.check(); err != nil {
		t.Fatalf("well-formed spec rejected: %v", err)
	}
	for name, breakIt := range map[string]func(*spec){
		"no subject":             func(s *spec) { s.subjects = []subject{} },
		"no workload":            func(s *spec) { s.workloads = nil },
		"unregistered reference": func(s *spec) { s.ref = "libc" },
		"no column":              func(s *spec) { s.columns = nil },
		"two-column figure":      func(s *spec) { s.layout, s.columns = overThreads, []column{opsColumn, maxLiveColumn} },
		"two-metric grid":        func(s *spec) { s.layout, s.columns = byWorkload, []column{opsColumn, maxLiveColumn} },
	} {
		bad := good
		breakIt(&bad)
		var buf bytes.Buffer
		measured := 0
		cfg.Record = func(bench.Result) { measured++ }
		if err := run(cfg, bad, &buf); err == nil || measured > 0 || buf.Len() > 0 {
			t.Errorf("%s: run = %v after %d measurements and output %q; want an error before any", name, err, measured, buf.String())
		}
	}
}

// TestAllocsHonoured: RunConfig.Allocators filters the subjects of every
// experiment, the ones that name their own included; only the serial
// reference is measured regardless.
func TestAllocsHonoured(t *testing.T) {
	for id, refRuns := range map[string]int{"table1": 3 * scalarReps, "space": 0, "frag": 0, "magazine": 0} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var recorded []bench.Result
			cfg := RunConfig{
				Threads:    []int{1, 2},
				Scale:      0.0002,
				Allocators: []string{"lockfree"},
				Record:     func(r bench.Result) { recorded = append(recorded, r) },
			}
			e, _ := ByID(cfg, id)
			if err := e.Run(io.Discard); err != nil {
				t.Fatal(err)
			}
			byAlloc := map[string]int{}
			for _, r := range recorded {
				byAlloc[r.Allocator]++
			}
			if byAlloc["lockfree"] == 0 || byAlloc["serial"] != refRuns || len(byAlloc) > 2 {
				t.Errorf("measured %v; want lockfree and %d runs of the serial reference only", byAlloc, refRuns)
			}
		})
	}
}

func TestRunConfigDefaults(t *testing.T) {
	c := RunConfig{}.withDefaults()
	if len(c.Threads) == 0 || c.Scale <= 0 || len(c.Allocators) == 0 {
		t.Errorf("defaults incomplete: %+v", c)
	}
	if c.Options.Processors != 16 {
		t.Errorf("Processors = %d, want max of default threads", c.Options.Processors)
	}
	if c.scaleInt(100) < 1 {
		t.Error("scaleInt floor")
	}
}

// TestTinyExperimentEndToEnd runs one sweep experiment at microscopic
// scale to validate the whole pipeline.
func TestTinyExperimentEndToEnd(t *testing.T) {
	cfg := RunConfig{
		Threads: []int{1, 2},
		Scale:   0.0002, // 2000 pairs
		Options: alloc.Options{Processors: 2},
	}
	e, _ := ByID(cfg, "fig8a")
	var buf bytes.Buffer
	if err := e.Run(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"linux-scalability", "lockfree", "serial", "threads"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestTinyTable1EndToEnd(t *testing.T) {
	cfg := RunConfig{Threads: []int{1}, Scale: 0.0002, Options: alloc.Options{Processors: 2}}
	e, _ := ByID(cfg, "table1")
	var buf bytes.Buffer
	if err := e.Run(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Larson") {
		t.Error("table1 output missing Larson row")
	}
}

func TestRawSyncCosts(t *testing.T) {
	for _, r := range rawSyncCosts() {
		if ns := float64(r.Elapsed.Nanoseconds()) / float64(r.Ops); ns <= 0 || ns > 10000 {
			t.Errorf("implausible cost: %s = %v ns", r.Allocator, ns)
		}
	}
}

// TestTelemetryExperimentEndToEnd runs a tiny sweep with the telemetry
// layer on and a Record callback (the benchmal -json path): every
// measurement is delivered, lock-free rows carry telemetry summaries,
// and their per-measurement lines (benchmal -v) include retries/op.
func TestTelemetryExperimentEndToEnd(t *testing.T) {
	var recorded []bench.Result
	cfg := RunConfig{
		Threads:    []int{1, 2},
		Scale:      0.0002,
		Options:    alloc.Options{Processors: 2},
		Allocators: []string{"lockfree", "serial"},
		Telemetry:  true,
		Record:     func(r bench.Result) { recorded = append(recorded, r) },
	}
	e, _ := ByID(cfg, "fig8a")
	if err := e.Run(io.Discard); err != nil {
		t.Fatal(err)
	}
	if len(recorded) == 0 {
		t.Fatal("Record callback never invoked")
	}
	lockfree := 0
	for _, r := range recorded {
		switch r.Allocator {
		case "lockfree":
			lockfree++
			if r.Telemetry == nil || !strings.Contains(r.String(), "retries/op") {
				t.Errorf("lockfree %s t=%d missing telemetry summary, or its line (benchmal -v) retries/op: %s", r.Workload, r.Threads, r)
			}
		case "serial":
			if r.Telemetry != nil {
				t.Errorf("serial %s t=%d has a telemetry summary", r.Workload, r.Threads)
			}
		}
	}
	if lockfree == 0 {
		t.Error("no lockfree measurements recorded")
	}
}
