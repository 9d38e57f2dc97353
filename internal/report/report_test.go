package report

import (
	"bytes"
	"strings"
	"testing"

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
	for _, e := range Experiments() {
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil {
			t.Errorf("experiment %q has no runner", e.ID)
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
	if _, ok := ByID("fig8a"); !ok {
		t.Error("ByID(fig8a) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) succeeded")
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
	e, _ := ByID("fig8a")
	var buf bytes.Buffer
	cfg := RunConfig{
		Threads: []int{1, 2},
		Scale:   0.0002, // 2000 pairs
		Options: alloc.Options{Processors: 2},
	}
	if err := e.Run(cfg, &buf); err != nil {
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
	e, _ := ByID("table1")
	var buf bytes.Buffer
	cfg := RunConfig{Threads: []int{1}, Scale: 0.0002, Options: alloc.Options{Processors: 2}}
	if err := e.Run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Larson") {
		t.Error("table1 output missing Larson row")
	}
}

func TestRawSyncCosts(t *testing.T) {
	lock, cas := rawSyncCosts()
	if lock <= 0 || cas <= 0 {
		t.Errorf("nonpositive costs: lock=%v cas=%v", lock, cas)
	}
	if lock > 10000 || cas > 10000 {
		t.Errorf("implausible costs: lock=%v cas=%v", lock, cas)
	}
}

// TestTelemetryExperimentEndToEnd runs a tiny sweep with the telemetry
// layer on and a Record callback (the benchmal -json path): every
// measurement is delivered, lock-free rows carry telemetry summaries,
// and the printed per-measurement lines include retries/op.
func TestTelemetryExperimentEndToEnd(t *testing.T) {
	e, _ := ByID("fig8a")
	var buf bytes.Buffer
	var recorded []bench.Result
	cfg := RunConfig{
		Threads:    []int{1, 2},
		Scale:      0.0002,
		Options:    alloc.Options{Processors: 2},
		Allocators: []string{"lockfree", "serial"},
		Telemetry:  true,
		Record:     func(r bench.Result) { recorded = append(recorded, r) },
	}
	if err := e.Run(cfg, &buf); err != nil {
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
			if r.Telemetry == nil {
				t.Errorf("lockfree %s t=%d missing telemetry summary", r.Workload, r.Threads)
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
	if !strings.Contains(buf.String(), "retries/op") {
		t.Error("verbose measurement lines missing retries/op")
	}
}
