package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/alloc"
	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// newTestMonitor builds a monitor over a small allocator with the
// sampler on and some deterministic traffic already applied.
func newTestMonitor(t *testing.T, ops int) (*monitor, alloc.Thread) {
	return newBackendMonitor(t, "lockfree", ops)
}

func newBackendMonitor(t *testing.T, name string, ops int) (*monitor, alloc.Thread) {
	t.Helper()
	rec := core.NewRecorder(telemetry.Config{SampleRate: 1})
	a, err := alloc.New(name, alloc.Options{
		Processors: 2,
		HeapConfig: mem.Config{TotalWordsLog2: 28},
		LockFree:   core.Config{MagazineSize: 8, Telemetry: rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	th := a.NewThread()
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
	return newMonitor(rec, a, 16), th
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
		"/census.json": "application/json",
		"/series.json": "application/json",
	} {
		_, ct := get(t, srv, path)
		if ct != want {
			t.Errorf("GET %s: Content-Type = %q, want %q", path, ct, want)
		}
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
	if delta.Mallocs != extra {
		t.Errorf("delta mallocs = %d, want %d", delta.Mallocs, extra)
	}

	// base=last resolves the newest point.
	body, _ = get(t, srv, "/stats.json?base=last")
	if err := json.Unmarshal([]byte(body), &delta); err != nil {
		t.Fatal(err)
	}
	if delta.Mallocs != extra {
		t.Errorf("base=last delta mallocs = %d, want %d", delta.Mallocs, extra)
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
	if pts[1].Delta.Mallocs != 1 || pts[1].Delta.Frees != 1 {
		t.Errorf("second point delta = %d mallocs / %d frees, want 1/1",
			pts[1].Delta.Mallocs, pts[1].Delta.Frees)
	}
}

func TestDashboardCensusSummary(t *testing.T) {
	m, _ := newTestMonitor(t, 100)
	srv := httptest.NewServer(m.mux())
	defer srv.Close()
	body, _ := get(t, srv, "/")
	for _, want := range []string{"totals: ", "sampled internal fragmentation: ", "external fragmentation "} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}

// TestEveryBackend: each registry entry can be watched — a dashboard, a
// /census.json that carries at least the OS-layer part with the regions
// the traffic drew, and a -once run that exits 0.
func TestEveryBackend(t *testing.T) {
	for _, name := range alloc.Names() {
		t.Run(name, func(t *testing.T) {
			m, _ := newBackendMonitor(t, name, 100)
			srv := httptest.NewServer(m.mux())
			defer srv.Close()

			if body, _ := get(t, srv, "/"); !strings.Contains(body, "telemetry: ") || !strings.Contains(body, "OS layer (words):") {
				t.Errorf("dashboard lacks the snapshot or the census:\n%s", body)
			}
			body, _ := get(t, srv, "/census.json")
			var c struct {
				OS *census.OSLayer `json:"os"`
			}
			if err := json.Unmarshal([]byte(body), &c); err != nil {
				t.Fatal(err)
			}
			if c.OS == nil || c.OS.RegionAllocs == 0 || c.OS.ReservedWords == 0 {
				t.Errorf("/census.json OS-layer part = %+v: %s", c.OS, body)
			}

			var out, errOut bytes.Buffer
			if code := run([]string{"-once", "-warmup", "20ms", "-threads", "2", "-alloc", name}, &out, &errOut); code != 0 {
				t.Fatalf("-once: exit %d\n%s", code, errOut.String())
			}
			if !strings.Contains(out.String(), "OS layer (words):") {
				t.Errorf("-once printed no census:\n%s", out.String())
			}
		})
	}
}

// TestBuddyEndpoints: watching the buddy, /census.json carries its order
// table.
func TestBuddyEndpoints(t *testing.T) {
	m, _ := newBackendMonitor(t, "buddy", 100)
	srv := httptest.NewServer(m.mux())
	defer srv.Close()

	body, _ := get(t, srv, "/census.json")
	var c struct {
		Buddy *census.Buddy `json:"buddy"`
	}
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
	if used != 50 { // newBackendMonitor frees every other of its 100 blocks
		t.Fatalf("buddy census counts %d used blocks, want 50", used)
	}
}

// servedFields are the /stats.json and /census.json fields, as dotted
// paths ("[]" steps into every element of an array), that carry the
// numbers of the telemetry snapshot and of each backend's census parts:
// the OS layer for every backend, then lockfree's and buddy's own.
var servedFields = map[string][]string{
	"/stats.json": {
		"uptimeNS", "threads", "retries", "totalRetries",
		"malloc.count", "malloc.p50ns", "malloc.p90ns", "malloc.p99ns",
		"free.count", "free.p50ns", "free.p90ns", "free.p99ns",
	},
	"os": {
		"os.totalWords", "os.ReservedWords", "os.LiveWords", "os.freeWords",
		"os.freeRegions", "os.externalFragRatio",
	},
	"lockfree": {
		"superblocks.classes[].superblocks", "superblocks.classes[].blocksUsed",
		"superblocks.classes[].blocksFree", "superblocks.classes[].blocksReserved",
		"superblocks.classes[].magazineCached", "superblocks.classes[].partialList",
		"superblocks.classes[].carveWasteWords", "superblocks.classes[].internalFragRatio",
		"superblocks.totals.internalFragRatio",
		"superblocks.ops.MagazineHits", "superblocks.ops.MagazineMisses", "superblocks.ops.MagazineFlushes",
		"descPool.onFreelist",
		"sampler.ages", "sampler.ageP50NS", "sampler.ageP99NS",
		"sampler.sites[].live", "sampler.sites[].liveBytes",
		"sampler.sampled", "sampler.evicted", "sampler.collisions", "sampler.matchedFrees", "sampler.rate",
	},
	"buddy": {
		"buddy.stats.Trees", "buddy.stats.TreeWords",
		"buddy.orders[].order", "buddy.orders[].blockWords", "buddy.orders[].free", "buddy.orders[].used",
		"buddy.freeWords", "buddy.usedWords", "buddy.externalFragRatio", "buddy.coalBits",
		"buddy.stats.Mallocs", "buddy.stats.Frees", "buddy.stats.LargeMallocs", "buddy.stats.LargeFrees",
		"buddy.stats.Grows", "buddy.stats.GrowRaces", "buddy.stats.HintHits", "buddy.stats.Scans",
	},
}

// lookup reports the values at a dotted path of a decoded JSON
// document, one per array element stepped through, and what it found
// missing: a key, an empty array or a null.
func lookup(v any, path string) ([]any, error) {
	vals := []any{v}
	for _, step := range strings.Split(path, ".") {
		key, each := strings.CutSuffix(step, "[]")
		var next []any
		for _, v := range vals {
			obj, ok := v.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("%s: not an object above %q", path, key)
			}
			f, ok := obj[key]
			if !ok || f == nil {
				return nil, fmt.Errorf("%s: no %q", path, key)
			}
			if !each {
				next = append(next, f)
				continue
			}
			arr, _ := f.([]any)
			if len(arr) == 0 {
				return nil, fmt.Errorf("%s: %q is not a non-empty array", path, key)
			}
			next = append(next, arr...)
		}
		vals = next
	}
	return vals, nil
}

// TestNoNumberLost: for lockfree with the sampler on and for buddy,
// /stats.json and /census.json carry every field in servedFields, the
// one machine-readable copy of each number; /metrics and /stream are
// not served.
func TestNoNumberLost(t *testing.T) {
	for _, name := range []string{"lockfree", "buddy"} {
		t.Run(name, func(t *testing.T) {
			m, _ := newBackendMonitor(t, name, 200)
			srv := httptest.NewServer(m.mux())
			defer srv.Close()

			docs := map[string]any{}
			for _, path := range []string{"/stats.json", "/census.json"} {
				body, _ := get(t, srv, path)
				var doc any
				if err := json.Unmarshal([]byte(body), &doc); err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				docs[path] = doc
			}
			for group, paths := range map[string][]string{
				"/stats.json":  servedFields["/stats.json"],
				"/census.json": append(slices.Clone(servedFields["os"]), servedFields[name]...),
			} {
				for _, p := range paths {
					if _, err := lookup(docs[group], p); err != nil {
						t.Errorf("%s %v", group, err)
					}
				}
			}
			// The sampler counted the traffic, not just named its fields.
			if name == "lockfree" {
				ages, _ := lookup(docs["/census.json"], "sampler.ages")
				if len(ages) != 1 || !slices.ContainsFunc(ages[0].([]any), func(n any) bool { return n.(float64) > 0 }) {
					t.Errorf("sampler.ages = %v: no live sample", ages)
				}
			}

			for _, gone := range []string{"/metrics", "/stream"} {
				resp, err := srv.Client().Get(srv.URL + gone)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != 404 {
					t.Errorf("GET %s: status %d, want 404", gone, resp.StatusCode)
				}
			}
		})
	}
}

// TestRejectedConfig: a knob core.Config.Validate rejects, an unknown
// backend, no workload thread, a non-positive sampling interval, an
// empty series ring, or a negative sampling period stops
// the command before any workload starts — also in server mode, which
// must return instead of listening.
func TestRejectedConfig(t *testing.T) {
	once := func(args ...string) []string { return append([]string{"-once", "-warmup", "1ms"}, args...) }
	for _, args := range [][]string{
		once("-magazine", "-1"),
		once("-alloc", "nosuch"),
		once("-threads", "0"),
		once("-interval", "0"),
		{"-interval", "0", "-addr", "127.0.0.1:0"},
		{"-threads", "-1", "-addr", "127.0.0.1:0"},
		once("-samplerate", "-1"),
		once("-samplerate", "-5"),
		once("-history", "0"),
		{"-history", "0", "-addr", "127.0.0.1:0"},
		{"-history", "-4", "-addr", "127.0.0.1:0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 1 || out.Len() != 0 || errOut.Len() == 0 {
			t.Errorf("allocmon %v: exit %d, stdout %q, stderr %q", args, code, out.String(), errOut.String())
		}
	}
}

var (
	pathInParens = regexp.MustCompile(`\(/[^)]*\)`)
	numeral      = regexp.MustCompile(`0x[0-9a-f]+|[0-9][0-9.]*(ns|µs|ms|s|%)?`)
)

// skeleton reduces a dashboard to the line structure of its census (the
// snapshot above it is internal/telemetry's text): every numeral masked
// as "#", file paths as "(path)", column padding squeezed, table rows —
// lines of nothing but masks — and blank lines dropped.
func skeleton(out string) []string {
	_, out, _ = strings.Cut(out, "\nCensus:\n")
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		line = numeral.ReplaceAllString(pathInParens.ReplaceAllString(line, "(path)"), "#")
		line = strings.Join(strings.Fields(line), " ")
		if strings.Trim(line, "#- ") != "" {
			lines = append(lines, line)
		}
	}
	return lines
}

const osLayerSkeleton = `heap: # words live (max-live # KiB), # region allocs / # frees, external fragmentation #
OS layer (words):
reserved live skipped allocs frees reused free regions free words occupancy ext frag
`

// onceSkeletons is the line structure of the census on `allocmon -once
// -alloc <name> -threads 2 -samplerate 1`.
var onceSkeletons = map[string]string{
	"lockfree": `allocator: mallocs=# frees=#; # large mallocs, # empty-partial skips
paths: active=# partial=# newSB=# raceLoss=# sbFreed=#
Size classes (superblocks by anchor state, block inventory):
class A F P E used free resv mag partial int frag
totals: # superblocks, blocks used=# free=# resv=# mag=#, carve waste # words
sampled internal fragmentation: #
` + osLayerSkeleton + `Region-bin occupancy (free regions awaiting reuse):
region words regions
descriptors: # allocated, # on freelist
Live-block ages (# samples at rate #/#): p#=# p#=# oldest=#
Top call sites by live sampled bytes:
live bytes oldest site
# # # repro/internal/churn.(*Driver).Step (path)
`,
	"buddy": `buddy: # trees x # words, # grows (# lost races), # hint hits, # scans, #/# beyond-tree
Buddy order census: ext frag #, # coal bits
order block words free used
` + osLayerSkeleton + `Region bins: empty (no free regions awaiting reuse)
`,
}

// parentLines maps every line shape under the snapshot of `allocmon
// -once [-buddy]` at commit 7adc75f (the digest printers this command
// used to hold; -buddy appended its lines to the lock-free ones) to the
// shape that carries its numbers now; a parent line that was split names
// the one its first numbers went to, and CHANGES.md (PR 16) says where
// the rest are.
var parentLines = map[string]map[string]string{
	"lockfree": {
		"allocator: mallocs=# frees=# active=# partial=# newSB=#":             "allocator: mallocs=# frees=#; # large mallocs, # empty-partial skips",
		"heap: live # KiB, max-live # KiB, descriptors # (+# free)":           "heap: # words live (max-live # KiB), # region allocs / # frees, external fragmentation #",
		"desc pool: freelist backend, # stripes, free per stripe [# #]":       "descriptors: # allocated, # on freelist",
		"census: # superblocks, blocks used=# free=# magazine=#":              "totals: # superblocks, blocks used=# free=# resv=# mag=#, carve waste # words",
		"frag: internal # external #; # live samples, age p#=# p#=# oldest=#": "Live-block ages (# samples at rate #/#): p#=# p#=# oldest=#",
		"frag: external # (sampler off)":                                      "heap: # words live (max-live # KiB), # region allocs / # frees, external fragmentation #",
	},
	"buddy": {
		"buddy: # trees x # words, frees coalesced to ext-frag #, # coal bits": "Buddy order census: ext frag #, # coal bits",
		"buddy: order # (# words): free=# used=#":                              "order block words free used",
	},
}

// TestOnceSkeleton pins the line structure of -once for the two backends
// that had one at the parent commit, and that none of the parent's lines
// went missing.
func TestOnceSkeleton(t *testing.T) {
	for name, want := range onceSkeletons {
		var out, errOut bytes.Buffer
		// Full speed, so that 200 ms is sure to have freed a large block
		// into the region bins.
		if code := run([]string{"-once", "-warmup", "200ms", "-pause", "0", "-threads", "2", "-samplerate", "1", "-alloc", name}, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d\n%s", name, code, errOut.String())
		}
		got := skeleton(out.String())
		if joined := strings.Join(got, "\n") + "\n"; joined != want {
			t.Errorf("%s: skeleton changed\n--- got ---\n%s--- want ---\n%s", name, joined, want)
		}
		for parent, now := range parentLines[name] {
			if now == "" {
				now = parent
			}
			if !slices.Contains(got, now) {
				t.Errorf("%s: the parent's line %q has no counterpart %q", name, parent, now)
			}
		}
	}
}
