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
	// Spacing guarantee. Up to the first four-page count class (1080 B,
	// 15 a superblock), waste within a class is below 8 bytes absolute
	// (word rounding) or 30% relative, whichever is larger. Above the
	// listed classes no relative bound can hold with whole blocks in
	// three- or four-page superblocks (4088 → 5448 → 6136 → 8184 B); the
	// guarantee there is that the class is the tightest those
	// superblocks allow: the request's own block, prefix included, cut
	// at most 15 times from either size, costs no smaller a share of its
	// superblock (SBWords/MaxCount, compared cross-multiplied) than the
	// class's block does of the class's.
	firstCountBytes := uint64(SuperblockWords/firstCountClass-1) * mem.WordBytes
	for sz := uint64(1); sz <= MaxPayloadBytes; sz++ {
		c, _ := For(sz)
		if sz <= firstCountBytes {
			waste := c.PayloadBytes - sz
			if waste >= 8 && waste*100 > sz*30 {
				t.Fatalf("size %d maps to class payload %d: %d%% waste",
					sz, c.PayloadBytes, waste*100/sz)
			}
		}
		if sz <= listedMaxBytes {
			continue
		}
		words := (sz + mem.WordBytes - 1) / mem.WordBytes
		for _, sb := range []uint64{3 * mem.PageWords, 4 * mem.PageWords} {
			if fit := min(sb/(words+1), firstCountClass); sb*c.MaxCount < c.SBWords*fit {
				t.Fatalf("size %d maps to a class of %d blocks a %d-word superblock; its own block would fit %d times in %d words",
					sz, c.MaxCount, c.SBWords, fit, sb)
			}
		}
	}
}

// previousPayloads is the table this one replaced (up to PR 17), the
// reference of the two tests below: 256-byte steps from 1024 to 2048 B,
// everything larger a page-rounded region from the OS layer, every
// superblock 16 KiB.
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
// Shares are compared as SBWords/MaxCount, cross-multiplied, without
// rounding.
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
		if c.SBWords*oldCount > SuperblockWords*c.MaxCount {
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

// TestCountClasses: above the listed classes the table is the frontier
// of the three- and four-page candidates, the blocks SB/n words for
// each superblock size SB and n = 15 … 2: no candidate holding at least
// a class's block costs a smaller share of its superblock, nor the same
// share with a larger block; a three-page candidate that ties a
// four-page class in both loses to it (1352, 2040 and 4088 B stay on
// 16 KiB); so the fourteen 16 KiB classes stay and nine 12 KiB ones join
// them. Each class is the largest block that fits its count and wastes
// fewer words of its superblock than it has blocks.
func TestCountClasses(t *testing.T) {
	const three, four = 3 * mem.PageWords, 4 * mem.PageWords
	want := map[uint64]uint64{ // payload B: superblock words
		936: three, 1016: three, 1080: four, 1104: three, 1160: four, 1216: three,
		1248: four, 1352: four, 1480: four, 1528: three, 1624: four, 1744: three,
		1808: four, 2040: four, 2328: four, 2448: three, 2720: four, 3064: three,
		3264: four, 4088: four, 5448: four, 6136: three, 8184: four,
	}
	seen := 0
	for _, c := range All() {
		if c.PayloadBytes <= listedMaxBytes {
			continue
		}
		seen++
		if sb, ok := want[c.PayloadBytes]; !ok || c.SBWords != sb {
			t.Errorf("class %d (%d B) on a %d-word superblock; want %v", c.Index, c.PayloadBytes, c.SBWords, want[c.PayloadBytes])
		}
		if c.BlockWords != c.SBWords/c.MaxCount || c.MaxCount > firstCountClass {
			t.Errorf("class %d (%d B): %d blocks of %d words is no candidate of its %d-word superblock",
				c.Index, c.PayloadBytes, c.MaxCount, c.BlockWords, c.SBWords)
		}
		if slack := c.SBWords - c.MaxCount*c.BlockWords; slack >= c.MaxCount {
			t.Errorf("class %d (%d B) leaves %d words of its superblock unused", c.Index, c.PayloadBytes, slack)
		}
		for _, sb := range []uint64{three, four} {
			for n := uint64(2); n <= firstCountClass; n++ {
				bw := sb / n
				if bw < c.BlockWords {
					continue
				}
				cand, class := sb*c.MaxCount, c.SBWords*(sb/bw) // share of a superblock, cross-multiplied
				switch {
				case cand < class:
					t.Errorf("class %d (%d B): a %d-word block cut %d times from %d words costs less", c.Index, c.PayloadBytes, bw, sb/bw, sb)
				case cand == class && bw > c.BlockWords:
					t.Errorf("class %d (%d B): a larger %d-word block costs the same", c.Index, c.PayloadBytes, bw)
				case cand == class && sb > c.SBWords:
					t.Errorf("class %d (%d B): a tie went to %d words, not %d", c.Index, c.PayloadBytes, c.SBWords, sb)
				}
			}
		}
	}
	if seen != len(want) {
		t.Errorf("%d count classes, want %d", seen, len(want))
	}
	if got := ByIndex(NumClasses() - 1).PayloadBytes; got != MaxPayloadBytes {
		t.Errorf("last class serves %d B, MaxPayloadBytes is %d", got, MaxPayloadBytes)
	}
}

// TestBuildClassesRejects: a table the rest of the repository could not
// represent stops the program at start-up.
func TestBuildClassesRejects(t *testing.T) {
	tooMany := make([]shape, math.MaxInt8+2) // lookup holds int8 indices
	for i := range tooMany {
		tooMany[i] = shape{uint64(i + 2), SuperblockWords}
	}
	for name, shapes := range map[string][]shape{
		"more classes than int8":  tooMany,
		"one block a superblock":  {{SuperblockWords/2 + 1, SuperblockWords}},
		"superblock above 16 KiB": {{2, 2 * SuperblockWords}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: buildClasses did not panic", name)
				}
			}()
			buildClasses(shapes)
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
