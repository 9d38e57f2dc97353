package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/buddy"
	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// newTestMonitor builds a monitor over a small allocator with the
// sampler on and some deterministic traffic already applied.
func newTestMonitor(t *testing.T, ops int) (*monitor, *core.Thread) {
	t.Helper()
	rec := core.NewRecorder(telemetry.Config{SampleRate: 1})
	a := core.New(core.Config{
		Processors:   2,
		MagazineSize: 8,
		Telemetry:    rec,
		HeapConfig:   mem.Config{SegmentWordsLog2: 18, TotalWordsLog2: 28},
	})
	th := a.Thread()
	held := make([]mem.Ptr, 0, ops)
	for i := 0; i < ops; i++ {
		p, err := th.Malloc(uint64(8 + 16*(i%50)))
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, p)
	}
	for i, p := range held {
		if i%2 == 0 {
			th.Free(p)
		}
	}
	return newMonitor(rec, a, 16, 4), th
}

func get(t *testing.T, srv *httptest.Server, path string) (string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// TestEndpointsContentTypes checks every endpoint declares its media
// type explicitly.
func TestEndpointsContentTypes(t *testing.T) {
	m, _ := newTestMonitor(t, 100)
	m.sampleOnce()
	srv := httptest.NewServer(m.mux())
	defer srv.Close()

	for path, want := range map[string]string{
		"/":            "text/plain; charset=utf-8",
		"/stats.json":  "application/json",
		"/events":      "application/json",
		"/heap":        "application/json",
		"/census.json": "application/json",
		"/series.json": "application/json",
		"/metrics":     census.ContentType,
	} {
		_, ct := get(t, srv, path)
		if ct != want {
			t.Errorf("GET %s: Content-Type = %q, want %q", path, ct, want)
		}
	}
}

// TestMetricsEndpoint: /metrics must serve valid Prometheus text format
// with live census series (fragmentation, ages).
func TestMetricsEndpoint(t *testing.T) {
	m, _ := newTestMonitor(t, 200)
	srv := httptest.NewServer(m.mux())
	defer srv.Close()

	body, _ := get(t, srv, "/metrics")
	if err := census.ValidateMetrics([]byte(body)); err != nil {
		t.Fatalf("/metrics invalid: %v", err)
	}
	for _, want := range []string{
		"census_superblocks", "census_internal_frag_ratio",
		"census_external_frag_ratio", "census_live_age_seconds_bucket",
		"census_site_live_bytes", "alloc_ops_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestStreamEndpoint: /stream delivers a series point as an SSE data
// frame with census fields populated.
func TestStreamEndpoint(t *testing.T) {
	m, _ := newTestMonitor(t, 200)
	m.sampleOnce() // Last() exists, sent on connect
	srv := httptest.NewServer(m.mux())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var data string
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			data = strings.TrimPrefix(sc.Text(), "data: ")
			break
		}
	}
	if data == "" {
		t.Fatalf("no SSE data frame: %v", sc.Err())
	}
	var pt struct {
		Seq      uint64             `json:"seq"`
		Snapshot telemetry.Snapshot `json:"snapshot"`
		Census   *census.Census     `json:"census"`
		Delta    telemetry.Snapshot `json:"delta"`
	}
	if err := json.Unmarshal([]byte(data), &pt); err != nil {
		t.Fatalf("bad SSE JSON: %v", err)
	}
	if pt.Snapshot.Malloc.Count == 0 {
		t.Error("streamed snapshot has no mallocs")
	}
	if pt.Census == nil || pt.Census.Totals.Superblocks == 0 {
		t.Errorf("streamed census empty: %+v", pt.Census)
	}
	if pt.Census != nil && pt.Census.Ages.Count() == 0 {
		t.Error("streamed census has no live-age samples")
	}
}

// TestStatsBaseDelta: ?base=<seq> subtracts a series point, so the
// delta's op counts reflect only traffic after that point.
func TestStatsBaseDelta(t *testing.T) {
	m, th := newTestMonitor(t, 100)
	base := m.sampleOnce()

	const extra = 57
	held := make([]mem.Ptr, 0, extra)
	for i := 0; i < extra; i++ {
		p, err := th.Malloc(32)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, p)
	}
	srv := httptest.NewServer(m.mux())
	defer srv.Close()

	body, _ := get(t, srv, fmt.Sprintf("/stats.json?base=%d", base.Seq))
	var delta telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &delta); err != nil {
		t.Fatal(err)
	}
	if delta.Malloc.Count != extra {
		t.Errorf("delta mallocs = %d, want %d", delta.Malloc.Count, extra)
	}

	// base=last resolves the newest point.
	body, _ = get(t, srv, "/stats.json?base=last")
	if err := json.Unmarshal([]byte(body), &delta); err != nil {
		t.Fatal(err)
	}
	if delta.Malloc.Count != extra {
		t.Errorf("base=last delta mallocs = %d, want %d", delta.Malloc.Count, extra)
	}

	// Bogus bases are a client error.
	for _, bad := range []string{"banana", "999999"} {
		resp, err := srv.Client().Get(srv.URL + "/stats.json?base=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("base=%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	for _, p := range held {
		th.Free(p)
	}
}

// TestSeriesEndpoint: /series.json returns the sampled ring with
// per-interval deltas.
func TestSeriesEndpoint(t *testing.T) {
	m, th := newTestMonitor(t, 50)
	m.sampleOnce()
	p, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	th.Free(p)
	m.sampleOnce()
	srv := httptest.NewServer(m.mux())
	defer srv.Close()

	body, _ := get(t, srv, "/series.json")
	var pts []telemetry.SeriesPoint
	if err := json.Unmarshal([]byte(body), &pts); err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("series has %d points, want 2", len(pts))
	}
	if pts[1].Delta.Malloc.Count != 1 || pts[1].Delta.Free.Count != 1 {
		t.Errorf("second point delta = %d mallocs / %d frees, want 1/1",
			pts[1].Delta.Malloc.Count, pts[1].Delta.Free.Count)
	}
}

func TestDashboardCensusSummary(t *testing.T) {
	m, _ := newTestMonitor(t, 100)
	srv := httptest.NewServer(m.mux())
	defer srv.Close()
	body, _ := get(t, srv, "/")
	for _, want := range []string{"census:", "frag: internal"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}

// TestBuddyEndpoints: with -buddy attached, /census.json carries the
// buddy order table and /metrics appends valid buddy_* families.
func TestBuddyEndpoints(t *testing.T) {
	m, _ := newTestMonitor(t, 100)
	m.bud = buddy.New(buddy.Config{
		HeapConfig:    mem.Config{SegmentWordsLog2: 14, TotalWordsLog2: 22},
		TreeWordsLog2: 12,
	})
	bt := m.bud.Thread()
	var held []mem.Ptr
	for _, sz := range []uint64{8, 100, 1000, 20000} {
		p, err := bt.Malloc(sz)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, p)
	}
	srv := httptest.NewServer(m.mux())
	defer srv.Close()

	body, _ := get(t, srv, "/census.json")
	var c census.Census
	if err := json.Unmarshal([]byte(body), &c); err != nil {
		t.Fatal(err)
	}
	if c.Buddy == nil || len(c.Buddy.Orders) == 0 {
		t.Fatalf("/census.json has no buddy order table: %s", body)
	}
	var used uint64
	for _, o := range c.Buddy.Orders {
		used += o.Used
	}
	if used != uint64(len(held)) {
		t.Fatalf("buddy census counts %d used blocks, want %d", used, len(held))
	}

	metrics, _ := get(t, srv, "/metrics")
	if err := census.ValidateMetrics([]byte(metrics)); err != nil {
		t.Fatalf("/metrics with buddy families invalid: %v", err)
	}
	for _, want := range []string{"buddy_order_blocks", "buddy_external_frag_ratio", "buddy_trees"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	for _, p := range held {
		bt.Free(p)
	}
}
