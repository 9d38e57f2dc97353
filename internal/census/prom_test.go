package census

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden")

// goldenInputs builds a fully deterministic (Snapshot, Census) pair —
// no clocks, no map-order dependence in the output (WriteMetrics sorts)
// — so the golden file is stable across runs and platforms.
func goldenInputs() (telemetry.Snapshot, *Census) {
	snap := telemetry.Snapshot{
		UptimeNS:     2_500_000_000,
		Threads:      3,
		Retries:      map[string]uint64{"malloc.active": 7, "free.anchor": 3, "partial.pop": 0},
		TotalRetries: 10,
		Malloc:       telemetry.HistSummary{Count: 1500, P50NS: 96, P90NS: 384, P99NS: 1536},
		Free:         telemetry.HistSummary{Count: 1400, P50NS: 48, P90NS: 192, P99NS: 768},
	}

	sb := &Superblocks{
		Classes: []ClassCensus{
			{
				Class: 0, PayloadBytes: 8,
				Superblocks: [4]uint64{1, 2, 1, 3}, // active, full, partial, empty
				BlocksUsed:  4000, BlocksFree: 96, BlocksReserved: 32,
				MagazineCached: 48, PartialList: 1, CarveWasteWords: 12,
				SampledLive: 10, SampledReqBytes: 60, SampledWasteBytes: 20,
				InternalFragRatio: 0.25,
			},
			{
				Class: 1, PayloadBytes: 16,
				InternalFragRatio: -1, // nothing sampled, nothing live
			},
		},
		Totals: Totals{
			Superblocks: 4, BlocksUsed: 4000, BlocksFree: 96,
			BlocksReserved: 32, MagazineCached: 48, CarveWasteWords: 12,
			InternalFragRatio: 0.25,
		},
		Ops: core.OpStats{MagazineHits: 1200, MagazineMisses: 80, MagazineFlushes: 5},
	}
	osl := &OSLayer{
		Stats:      mem.Stats{ReservedWords: 1 << 16, LiveWords: 3 << 14, SkippedWords: 128},
		TotalWords: 1 << 20, FreeRegions: 4, FreeWords: 1 << 13,
		BumpOccupancy: 0.0625, ExternalFragRatio: 0.125,
	}
	smp := &Sampled{
		AgeP50NS: 98304,
		AgeP99NS: 1572864,
		OldestNS: 2000000,
		Sites: []SiteCensus{
			{PC: 0x401000, Func: "main.workload", File: "main.go", Line: 42,
				Live: 7, LiveBytes: 44, OldestNS: 2000000},
			{PC: 0x402000, Live: 3, LiveBytes: 16, OldestNS: 150000},
		},
		Enabled: true,
		SamplerStats: telemetry.SamplerStats{
			Rate: 64, Slots: 2048, Sampled: 23, Evicted: 2,
			Collisions: 1, MatchedFrees: 13,
		},
	}
	smp.Ages[17] = 6 // ~0.1 ms
	smp.Ages[20] = 3 // ~1 ms
	smp.Ages[21] = 1 // ~2 ms
	return snap, &Census{Parts: []Part{sb, osl, &DescPool{Allocated: 64, OnFreelist: 12}, smp}}
}

// TestWriteMetricsGolden pins the exposition format byte-for-byte and
// proves it passes the validator — the CI check that /metrics stays
// valid Prometheus text format.
func TestWriteMetricsGolden(t *testing.T) {
	snap, c := goldenInputs()
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, snap, c); err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetrics(buf.Bytes()); err != nil {
		t.Fatalf("generated metrics fail validation: %v", err)
	}

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("metrics output drifted from golden file (run with -update if intended)\ngot:\n%s", buf.String())
	}
}

// TestWriteMetricsDeterministic: two renders of the same inputs must be
// identical (map iteration is sorted).
func TestWriteMetricsDeterministic(t *testing.T) {
	snap, c := goldenInputs()
	var a, b bytes.Buffer
	if err := WriteMetrics(&a, snap, c); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetrics(&b, snap, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders of identical inputs differ")
	}
}

// TestWriteMetricsLive renders a census from a real allocator and
// validates it — covering label escaping with real function names and
// the nil-census path.
func TestWriteMetricsLive(t *testing.T) {
	a := core.New(testConfig(1))
	th := a.Thread()
	ptrs := make([]uint64, 0, 8)
	for i := 0; i < 8; i++ {
		p, err := th.Malloc(uint64(16 + 32*i))
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, uint64(p))
	}
	snap := a.Telemetry().Snapshot()
	sb, dp, smp := TakeLockFree(a)
	c := New(sb, TakeOS(a.Heap()), dp, smp)
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, snap, c); err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetrics(buf.Bytes()); err != nil {
		t.Fatalf("live metrics fail validation: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"census_superblocks", "census_live_age_seconds_bucket", "census_site_live_bytes", "alloc_ops_total{op=\"malloc\"}"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("live metrics missing %q", want)
		}
	}

	buf.Reset()
	if err := WriteMetrics(&buf, snap, nil); err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetrics(buf.Bytes()); err != nil {
		t.Fatalf("snapshot-only metrics fail validation: %v", err)
	}
	if strings.Contains(buf.String(), "census_") {
		t.Error("nil census still emitted census metrics")
	}
	_ = ptrs
}

func TestValidateMetricsRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"sample before TYPE", "foo 1\n"},
		{"bad metric name", "# TYPE 9foo gauge\n9foo 1\n"},
		{"bad type", "# TYPE foo banana\nfoo 1\n"},
		{"duplicate TYPE", "# TYPE foo gauge\n# TYPE foo gauge\nfoo 1\n"},
		{"bad value", "# TYPE foo gauge\nfoo abc\n"},
		{"bad label name", "# TYPE foo gauge\nfoo{9x=\"v\"} 1\n"},
		{"unquoted label", "# TYPE foo gauge\nfoo{x=v} 1\n"},
		{"unterminated label", "# TYPE foo gauge\nfoo{x=\"v} 1\n"},
		{"duplicate sample", "# TYPE foo gauge\nfoo{x=\"v\"} 1\nfoo{x=\"v\"} 2\n"},
		{"unknown comment", "#! not a comment\n"},
		{
			"non-cumulative histogram",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		},
		{
			"non-increasing le",
			"# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\n",
		},
		{
			"missing +Inf",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"2\"} 2\n",
		},
		{
			"bucket after +Inf",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_bucket{le=\"3\"} 2\n",
		},
	}
	for _, tc := range cases {
		if err := ValidateMetrics([]byte(tc.in)); err == nil {
			t.Errorf("%s: accepted invalid input", tc.name)
		}
	}

	valid := "# HELP foo help text\n# TYPE foo counter\nfoo{x=\"a\\\"b\\\\c\"} 1\nfoo 2.5e3\n" +
		"# TYPE h histogram\nh_bucket{le=\"0.5\"} 1\nh_bucket{le=\"+Inf\"} 4\nh_sum 2.5\nh_count 4\n"
	if err := ValidateMetrics([]byte(valid)); err != nil {
		t.Errorf("rejected valid input: %v", err)
	}
}
