// Package census builds consistent point-in-time inventories of an
// allocator's memory: where every superblock, block, and region is, and
// how much of the footprint is fragmentation. It answers the question
// the telemetry layer (contention and latency) does not ask: "where is
// the memory?"
//
// A Census is a list of parts, one per layer of the allocator's stack,
// top-down: the backend's own structures where a walker exists (the
// lock-free allocator's superblocks and descriptor pool; the buddy
// forest) above the OS layer (mem.Heap: bump pointer, region bins),
// which every backend has. A part is plain data: JSON by its struct
// tags, text by its WriteText; nothing outside this package formats a
// part's numbers.
//
// Every part is assembled entirely from racy-consistent atomic reads —
// the core walk primitives (Allocator.WalkSuperblocks, WalkActive,
// MagazineCounts, PartialListLens), the mem bin counters
// (Heap.BinCensus) and the descriptor-pool free counts — so a walk is
// safe (and race-detector-clean) while malloc/free churn, and a stalled
// or killed thread anywhere in the allocator cannot block it, nor it
// any allocator operation. The price is bounded inconsistency: each
// value is exact at some instant during the walk, but cross-structure
// identities (used+free+reserved == capacity) can be off by in-flight
// operations; they are exact at quiescence.
//
// Fragmentation accounting is exact, not sampled:
//
//   - Carve waste — the tail of a superblock that block carving cannot
//     use — is summed per class over the live superblocks.
//
//   - External fragmentation is the free-region mass parked in the OS
//     layer's bins as a fraction of its reserved address space: memory
//     the OS layer holds but no superblock or large block occupies.
//
// Rounding a request up to its class payload is not counted here: the
// census does not see requested sizes. The perf ledger's space_blowup
// and benchmal -exp space measure the whole space overhead, rounding
// included, end to end.
package census

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/atomicx"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sizeclass"
)

// Part is one layer's share of a census: plain data, rendered as JSON
// by its struct tags and as text by WriteText.
type Part interface {
	// Key names the part in the census's JSON object.
	Key() string
	// WriteText renders the part for a terminal.
	WriteText(w io.Writer)
}

// Census is one point-in-time inventory: the parts of the allocator's
// stack, top-down.
type Census struct {
	TakenUnixNano int64
	Parts         []Part
}

// New stamps a census of the given parts.
func New(parts ...Part) *Census {
	return &Census{TakenUnixNano: time.Now().UnixNano(), Parts: parts}
}

// WriteText renders every part in order, a blank line between two.
func (c *Census) WriteText(w io.Writer) {
	for i, p := range c.Parts {
		if i > 0 {
			fmt.Fprintln(w)
		}
		p.WriteText(w)
	}
}

// MarshalJSON renders the census as one object: takenUnixNano plus each
// part under its Key.
func (c *Census) MarshalJSON() ([]byte, error) {
	m := map[string]any{"takenUnixNano": c.TakenUnixNano}
	for _, p := range c.Parts {
		m[p.Key()] = p
	}
	return json.Marshal(m)
}

// table starts an aligned table on w under the given header row.
func table(w io.Writer, flags uint, header string) *tabwriter.Writer {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', flags)
	fmt.Fprintln(tw, header)
	return tw
}

// ClassCensus is one size class's inventory.
type ClassCensus struct {
	// Class is the size-class index, PayloadBytes its block payload.
	Class        int    `json:"class"`
	PayloadBytes uint64 `json:"payloadBytes"`
	// Superblocks counts descriptors by anchor state, indexed by
	// atomicx.StateActive/Full/Partial/Empty. EMPTY descriptors have
	// returned their superblock to the OS and are excluded from the
	// block and carve-waste totals below.
	Superblocks [4]uint64 `json:"superblocks"`
	// BlocksUsed counts blocks allocated out of the shared structures
	// (magazine-cached blocks are "used" here — MagazineCached says how
	// many of them sit in thread caches); BlocksFree blocks on
	// superblock free lists; BlocksReserved blocks spoken for through
	// Active-word credits but not yet popped.
	BlocksUsed     uint64 `json:"blocksUsed"`
	BlocksFree     uint64 `json:"blocksFree"`
	BlocksReserved uint64 `json:"blocksReserved"`
	MagazineCached uint64 `json:"magazineCached"`
	// PartialList is the size class's partial-list length.
	PartialList int `json:"partialList"`
	// CarveWasteWords is the exact per-superblock carving remainder
	// (SBWords − MaxCount×BlockWords) summed over live superblocks.
	CarveWasteWords uint64 `json:"carveWasteWords"`
}

// Totals aggregates the size classes.
type Totals struct {
	Superblocks    uint64 `json:"superblocks"` // live (non-EMPTY) superblocks
	BlocksUsed     uint64 `json:"blocksUsed"`
	BlocksFree     uint64 `json:"blocksFree"`
	BlocksReserved uint64 `json:"blocksReserved"`
	MagazineCached uint64 `json:"magazineCached"`
	// CarveWasteWords sums the per-class carving remainders.
	CarveWasteWords uint64 `json:"carveWasteWords"`
}

// Superblocks is the lock-free allocator's superblock layer: the
// per-class inventory, which path served the mallocs, and the
// hyperblock batching below it.
type Superblocks struct {
	Classes []ClassCensus `json:"classes"`
	Totals  Totals        `json:"totals"`
	// Ops are the allocator's operation and path counters, Hyper the
	// hyperblock layer's (zero with the layer off).
	Ops   core.OpStats   `json:"ops"`
	Hyper mem.HyperStats `json:"hyper"`
}

// DescPool is the lock-free allocator's descriptor pool.
type DescPool struct {
	// Allocated counts descriptors ever carved, OnFreelist those
	// retired to the DescAvail list and awaiting reuse.
	Allocated  uint64 `json:"allocated"`
	OnFreelist uint64 `json:"onFreelist"`
}

// TakeLockFree walks the lock-free allocator and assembles its two
// parts. Safe during concurrent malloc/free; see the package comment
// for the consistency model.
func TakeLockFree(a *core.Allocator) (*Superblocks, *DescPool) {
	stats := a.Stats()
	sb := &Superblocks{Ops: stats.Ops, Hyper: a.HyperStats()}

	// Active-word reservations, per descriptor: these blocks sit on
	// free lists but are spoken for, so the walk splits them out of the
	// free count.
	reserved := make(map[uint64]uint64)
	a.WalkActive(func(ai core.ActiveInfo) {
		reserved[ai.Desc] = ai.Credits + 1
	})

	classes := sizeclass.All()
	sb.Classes = make([]ClassCensus, len(classes))
	for i, cls := range classes {
		sb.Classes[i] = ClassCensus{Class: i, PayloadBytes: cls.PayloadBytes}
	}
	for i, n := range a.MagazineCounts() {
		sb.Classes[i].MagazineCached = n
	}
	for i, n := range a.PartialListLens() {
		sb.Classes[i].PartialList = n
	}

	a.WalkSuperblocks(func(d core.SuperblockInfo) bool {
		cc := &sb.Classes[d.Class]
		cc.Superblocks[d.State&3]++
		if d.State == atomicx.StateEmpty {
			return true // superblock returned to the OS
		}
		res := reserved[d.Desc]
		free := d.FreeCount + d.Remote
		used := d.MaxCount - free
		if used >= res {
			used -= res
		} else {
			// In-flight transition (reservation read before the pops it
			// covers); clamp rather than wrap.
			res = used
			used = 0
		}
		cc.BlocksUsed += used
		cc.BlocksFree += free
		cc.BlocksReserved += res
		cls := classes[d.Class]
		cc.CarveWasteWords += cls.SBWords - d.MaxCount*cls.BlockWords
		return true
	})

	for i := range sb.Classes {
		cc := &sb.Classes[i]
		sb.Totals.Superblocks += cc.Superblocks[atomicx.StateActive] +
			cc.Superblocks[atomicx.StateFull] + cc.Superblocks[atomicx.StatePartial]
		sb.Totals.BlocksUsed += cc.BlocksUsed
		sb.Totals.BlocksFree += cc.BlocksFree
		sb.Totals.BlocksReserved += cc.BlocksReserved
		sb.Totals.MagazineCached += cc.MagazineCached
		sb.Totals.CarveWasteWords += cc.CarveWasteWords
	}

	dp := &DescPool{Allocated: stats.DescsAllocated, OnFreelist: stats.DescsOnFreelist}
	return sb, dp
}

func (sb *Superblocks) Key() string { return "superblocks" }

func (sb *Superblocks) WriteText(w io.Writer) {
	o := sb.Ops
	fmt.Fprintf(w, "allocator: mallocs=%d frees=%d; %d large mallocs, %d empty-partial skips\n",
		o.Mallocs, o.Frees, o.LargeMallocs, o.EmptyPartialSkips)
	fmt.Fprintf(w, "paths: active=%d partial=%d newSB=%d raceLoss=%d sbFreed=%d\n",
		o.FromActive, o.FromPartial, o.FromNewSB, o.NewSBRaceLoss, o.EmptySBFreed)
	// Magazine hits are the mallocs the paths above do not serve:
	// active+partial+newSB+hits = mallocs.
	if o.MagazineHits+o.MagazineMisses+o.MagazineFlushes > 0 {
		fmt.Fprintf(w, "magazines: hits=%d misses=%d flushes=%d (%d blocks)\n",
			o.MagazineHits, o.MagazineMisses, o.MagazineFlushes, o.MagazineFlushedBlocks)
	}
	if sb.Hyper.HyperAllocs > 0 {
		fmt.Fprintf(w, "hyperblocks: %d allocated, %d released\n", sb.Hyper.HyperAllocs, sb.Hyper.HyperReleases)
	}
	fmt.Fprintln(w, "\nSize classes (superblocks by anchor state, block inventory):")
	tw := table(w, tabwriter.AlignRight, "class\tA\tF\tP\tE\tused\tfree\tresv\tmag\tpartial\t")
	for _, cc := range sb.Classes {
		if cc.Superblocks == [4]uint64{} && cc.MagazineCached == 0 {
			continue
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			cc.Class,
			cc.Superblocks[atomicx.StateActive], cc.Superblocks[atomicx.StateFull],
			cc.Superblocks[atomicx.StatePartial], cc.Superblocks[atomicx.StateEmpty],
			cc.BlocksUsed, cc.BlocksFree, cc.BlocksReserved,
			cc.MagazineCached, cc.PartialList)
	}
	tw.Flush()
	t := sb.Totals
	fmt.Fprintf(w, "totals: %d superblocks, blocks used=%d free=%d resv=%d mag=%d, carve waste %d words\n",
		t.Superblocks, t.BlocksUsed, t.BlocksFree, t.BlocksReserved, t.MagazineCached, t.CarveWasteWords)
}

func (dp *DescPool) Key() string { return "descPool" }

func (dp *DescPool) WriteText(w io.Writer) {
	fmt.Fprintf(w, "descriptors: %d allocated, %d on freelist\n", dp.Allocated, dp.OnFreelist)
}

// Summary is the compact census digest embedded in benchmark results
// (bench.Result) and tables.
type Summary struct {
	Superblocks    uint64 `json:"superblocks"`
	BlocksUsed     uint64 `json:"blocksUsed"`
	BlocksFree     uint64 `json:"blocksFree"`
	MagazineCached uint64 `json:"magazineCached"`
	// ExternalFragPct is the OS layer's ExternalFragRatio as a
	// percentage.
	ExternalFragPct float64 `json:"externalFragPct"`
}

// Summary digests the census; the fields of a part it lacks stay zero.
func (c *Census) Summary() Summary {
	var s Summary
	for _, part := range c.Parts {
		switch p := part.(type) {
		case *Superblocks:
			s.Superblocks = p.Totals.Superblocks
			s.BlocksUsed = p.Totals.BlocksUsed
			s.BlocksFree = p.Totals.BlocksFree
			s.MagazineCached = p.Totals.MagazineCached
		case *OSLayer:
			s.ExternalFragPct = 100 * p.ExternalFragRatio
		}
	}
	return s
}
