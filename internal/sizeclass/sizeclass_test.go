package sizeclass

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/atomicx"
	"repro/internal/mem"
)

func TestTableMonotonic(t *testing.T) {
	prev := uint64(0)
	for _, c := range All() {
		if c.PayloadBytes <= prev {
			t.Errorf("class %d payload %d not increasing after %d", c.Index, c.PayloadBytes, prev)
		}
		prev = c.PayloadBytes
	}
}

func TestBlockWordsIncludePrefix(t *testing.T) {
	for _, c := range All() {
		if c.BlockWords != c.PayloadBytes/mem.WordBytes+1 {
			t.Errorf("class %d: BlockWords %d != payload words + 1", c.Index, c.BlockWords)
		}
	}
}

func TestMaxCountWithinAnchorWidth(t *testing.T) {
	for _, c := range All() {
		if c.MaxCount > atomicx.MaxBlocksPerSuperblock {
			t.Errorf("class %d: maxcount %d exceeds anchor field", c.Index, c.MaxCount)
		}
		if c.MaxCount < 2 {
			t.Errorf("class %d: maxcount %d < 2", c.Index, c.MaxCount)
		}
		if c.MaxCount != c.SBWords/c.BlockWords {
			t.Errorf("class %d: maxcount %d != sbsize/sz", c.Index, c.MaxCount)
		}
	}
}

func TestForServesRequest(t *testing.T) {
	for sz := uint64(1); sz <= MaxPayloadBytes; sz++ {
		c, ok := For(sz)
		if !ok {
			t.Fatalf("For(%d) refused a small size", sz)
		}
		if c.PayloadBytes < sz {
			t.Fatalf("For(%d) returned class with payload %d", sz, c.PayloadBytes)
		}
	}
}

func TestForTight(t *testing.T) {
	// Each class's own payload size must map to itself (no skipping).
	for _, c := range All() {
		got, ok := For(c.PayloadBytes)
		if !ok || got.Index != c.Index {
			t.Errorf("For(%d) = class %d, want %d", c.PayloadBytes, got.Index, c.Index)
		}
	}
}

func TestForMinimality(t *testing.T) {
	// For(sz) must return the smallest class that fits: the class just
	// below must not fit.
	f := func(raw uint16) bool {
		sz := uint64(raw)%MaxPayloadBytes + 1
		c, ok := For(sz)
		if !ok {
			return false
		}
		if c.Index == 0 {
			return true
		}
		return ByIndex(c.Index-1).PayloadBytes < sz
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForZero(t *testing.T) {
	c, ok := For(0)
	if !ok || c.Index != 0 {
		t.Errorf("For(0) = (%v, %v), want smallest class", c, ok)
	}
}

func TestLargeThreshold(t *testing.T) {
	if _, ok := For(MaxPayloadBytes); !ok {
		t.Error("MaxPayloadBytes should be small")
	}
	if _, ok := For(MaxPayloadBytes + 1); ok {
		t.Error("MaxPayloadBytes+1 should be large")
	}
	if !IsLarge(MaxPayloadBytes + 1) {
		t.Error("IsLarge(MaxPayloadBytes+1) = false")
	}
	if IsLarge(MaxPayloadBytes) {
		t.Error("IsLarge(MaxPayloadBytes) = true")
	}
}

func TestEightByteClassIsFirst(t *testing.T) {
	// The paper's benchmarks allocate 8-byte blocks; they should hit
	// the smallest class: 2 words per block, 1024 blocks per 16 KiB
	// superblock (the paper's worked example density).
	c, ok := For(8)
	if !ok || c.Index != 0 {
		t.Fatalf("For(8) = class %d", c.Index)
	}
	if c.BlockWords != 2 {
		t.Errorf("8-byte class block words = %d, want 2", c.BlockWords)
	}
	if c.MaxCount != 1024 {
		t.Errorf("8-byte class maxcount = %d, want 1024", c.MaxCount)
	}
}

func TestInternalFragmentationBounded(t *testing.T) {
	// Spacing guarantee. Up to the first class defined by its block
	// count (1080 B, 15 a superblock), waste within a class is below 8
	// bytes absolute (word rounding) or 30% relative, whichever is
	// larger. Above it no relative bound can hold with whole blocks in
	// one superblock size (4088 → 5448 → 8184 B is a third and a half);
	// the guarantee there is that the class is the tightest the
	// superblock allows: the request's own block, prefix included,
	// would fit no more often than the class's does.
	firstCountBytes := uint64(SuperblockWords/firstCountClass-1) * mem.WordBytes
	for sz := uint64(1); sz <= MaxPayloadBytes; sz++ {
		c, _ := For(sz)
		if sz <= firstCountBytes {
			waste := c.PayloadBytes - sz
			if waste >= 8 && waste*100 > sz*30 {
				t.Fatalf("size %d maps to class payload %d: %d%% waste",
					sz, c.PayloadBytes, waste*100/sz)
			}
			continue
		}
		words := (sz + mem.WordBytes - 1) / mem.WordBytes
		if fit := SuperblockWords / (words + 1); fit != c.MaxCount {
			t.Fatalf("size %d maps to a class of %d blocks a superblock; its own block would fit %d times",
				sz, c.MaxCount, fit)
		}
	}
}

// listedMaxBytes is the largest hand-listed class; above it a class is
// defined by its block count.
const listedMaxBytes = 896

// previousPayloads is the table this one replaced (up to PR 17), the
// reference of the two tests below: 256-byte steps from 1024 to 2048 B,
// everything larger a page-rounded region from the OS layer.
var previousPayloads = []uint64{
	8, 16, 24, 32, 40, 48, 56, 64,
	80, 96, 112, 128,
	160, 192, 224, 256,
	320, 384, 448, 512,
	640, 768, 896, 1024,
	1280, 1536, 1792, 2048,
}

// TestDominatesPreviousTable: for every size the table serves, a block
// takes no larger a share of the address space than it did under the
// previous table, so the change of table can only lower a footprint.
// Shares are compared as blocks per superblock, without rounding.
func TestDominatesPreviousTable(t *testing.T) {
	oi := 0
	for sz := uint64(1); sz <= MaxPayloadBytes; sz++ {
		c, _ := For(sz)
		if last := previousPayloads[len(previousPayloads)-1]; sz > last {
			// Was a large block: payload words plus the prefix, rounded
			// by the OS layer. New share SBWords/MaxCount ≤ region.
			words := (sz + mem.WordBytes - 1) / mem.WordBytes
			if region := mem.RegionWords(words + 1); c.SBWords > region*c.MaxCount {
				t.Fatalf("size %d: %d blocks a %d-word superblock, more than its old %d-word region",
					sz, c.MaxCount, c.SBWords, region)
			}
			continue
		}
		for previousPayloads[oi] < sz {
			oi++
		}
		oldCount := SuperblockWords / (previousPayloads[oi]/mem.WordBytes + 1)
		if c.SBWords != SuperblockWords || c.MaxCount < oldCount {
			t.Fatalf("size %d: %d blocks a %d-word superblock, was %d a %d-word one",
				sz, c.MaxCount, c.SBWords, oldCount, SuperblockWords)
		}
	}
}

// TestListedClassesUnchanged: the classes up to 896 B are the previous
// table's, index for index, so a workload that asks for no more (the
// ledger's larson and prodcons stop at 80 B) gets the blocks it got.
func TestListedClassesUnchanged(t *testing.T) {
	const listed = 23 // classes 0–22
	if got := previousPayloads[listed-1]; got != listedMaxBytes {
		t.Fatalf("class %d of the previous table is %d B, want %d", listed-1, got, listedMaxBytes)
	}
	for i, pb := range previousPayloads[:listed] {
		c := ByIndex(i)
		bw := pb/mem.WordBytes + 1
		if c.Index != i || c.PayloadBytes != pb || c.BlockWords != bw ||
			c.SBWords != SuperblockWords || c.MaxCount != SuperblockWords/bw {
			t.Errorf("class %d = %+v, want payload %d, %d words, %d a superblock", i, c, pb, bw, SuperblockWords/bw)
		}
	}
}

// TestCountClasses: above the listed classes there is exactly one class
// per block count, 15 down to 2, and each wastes fewer words of its
// superblock than it has blocks.
func TestCountClasses(t *testing.T) {
	want := uint64(firstCountClass)
	for _, c := range All() {
		if c.PayloadBytes <= listedMaxBytes {
			continue
		}
		if c.MaxCount != want {
			t.Errorf("class %d (%d B) has %d blocks a superblock, want %d", c.Index, c.PayloadBytes, c.MaxCount, want)
		}
		if slack := c.SBWords - c.MaxCount*c.BlockWords; slack >= c.MaxCount {
			t.Errorf("class %d (%d B) leaves %d words of its superblock unused", c.Index, c.PayloadBytes, slack)
		}
		want--
	}
	if want != 1 {
		t.Errorf("count classes stop at %d blocks a superblock, want 2", want+1)
	}
	if got := ByIndex(NumClasses() - 1).PayloadBytes; got != MaxPayloadBytes {
		t.Errorf("last class serves %d B, MaxPayloadBytes is %d", got, MaxPayloadBytes)
	}
}

// TestBuildClassesRejects: a table the rest of the repository could not
// represent stops the program at start-up.
func TestBuildClassesRejects(t *testing.T) {
	tooMany := make([]uint64, math.MaxInt8+2) // lookup holds int8 indices
	for i := range tooMany {
		tooMany[i] = uint64(i+1) * mem.WordBytes
	}
	for name, payloads := range map[string][]uint64{
		"more classes than int8": tooMany,
		"one block a superblock": {SuperblockWords / 2 * mem.WordBytes},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: buildClasses did not panic", name)
				}
			}()
			buildClasses(payloads)
		}()
	}
	buildClasses(tooMany[:math.MaxInt8+1]) // the most that fit
}

func TestAllReturnsCopy(t *testing.T) {
	a := All()
	a[0].PayloadBytes = 999999
	if ByIndex(0).PayloadBytes == 999999 {
		t.Error("All exposed internal table")
	}
}
