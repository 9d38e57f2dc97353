package census

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

func newBuddy(t *testing.T) (*buddy.Allocator, *buddy.Thread) {
	t.Helper()
	a := buddy.New(buddy.Config{
		HeapConfig:    mem.Config{SegmentWordsLog2: 14, TotalWordsLog2: 22},
		TreeWordsLog2: 12,
	})
	return a, a.Thread()
}

func TestTakeBuddy(t *testing.T) {
	a, th := newBuddy(t)
	p1, err := th.Malloc(8) // leaf block
	if err != nil {
		t.Fatal(err)
	}
	p2, err := th.Malloc(1000) // mid-order block
	if err != nil {
		t.Fatal(err)
	}
	bc := TakeBuddy(a)
	if bc.Stats.Trees != 1 || bc.Stats.TreeWords != 4096 {
		t.Fatalf("geometry = %d trees x %d words, want 1 x 4096", bc.Stats.Trees, bc.Stats.TreeWords)
	}
	var used uint64
	for _, o := range bc.Orders {
		used += o.Used
	}
	if used != 2 {
		t.Fatalf("order table counts %d used blocks, want 2: %+v", used, bc.Orders)
	}
	if bc.FreeWords+bc.UsedWords != bc.Stats.TreeWords {
		t.Fatalf("free %d + used %d != tree %d", bc.FreeWords, bc.UsedWords, bc.Stats.TreeWords)
	}
	if bc.ExternalFragRatio <= 0 || bc.ExternalFragRatio >= 1 {
		t.Fatalf("ExternalFragRatio = %v, want in (0,1) with a split tree", bc.ExternalFragRatio)
	}
	th.Free(p1)
	th.Free(p2)
	bc = TakeBuddy(a)
	if bc.ExternalFragRatio != 0 {
		t.Fatalf("ExternalFragRatio = %v after full coalescing, want 0", bc.ExternalFragRatio)
	}
	if bc.CoalBits != 0 {
		t.Fatalf("CoalBits = %d at quiescence, want 0", bc.CoalBits)
	}
	// The /census.json payload keys each part by its name.
	data, err := json.Marshal(New(bc, TakeOS(a.Heap())))
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Buddy *Buddy   `json:"buddy"`
		OS    *OSLayer `json:"os"`
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Buddy == nil || back.Buddy.Stats.Trees != bc.Stats.Trees || back.OS == nil || len(back.OS.Arenas) == 0 {
		t.Fatalf("parts did not survive the JSON round trip: %s", data)
	}
}

func TestWriteBuddyMetricsValidates(t *testing.T) {
	a, th := newBuddy(t)
	var ptrs []mem.Ptr
	for _, sz := range []uint64{8, 100, 1000, 20000} {
		p, err := th.Malloc(sz)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	bc := TakeBuddy(a)
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, telemetry.Snapshot{}, New(bc, TakeOS(a.Heap()))); err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetrics(buf.Bytes()); err != nil {
		t.Fatalf("buddy exposition not scrapeable: %v\n%s", err, buf.Bytes())
	}
	for _, want := range []string{
		"buddy_order_blocks{order=", `kind="free"`, `kind="used"`,
		"buddy_external_frag_ratio", "buddy_trees", "buddy_ops_total", "census_arena_words{arena=",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("exposition missing %q:\n%s", want, buf.Bytes())
		}
	}
	for _, p := range ptrs {
		th.Free(p)
	}
}
