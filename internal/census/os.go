package census

import (
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"

	"repro/internal/mem"
)

// ArenaCensus is one region arena's inventory: mem's own counters
// (request-side RegionAllocs/ReusedRegions/Steals charged to the arena
// asked, the rest to the arena owning the address) and bin census, plus
// the two ratios derived from them.
type ArenaCensus struct {
	mem.ArenaStats
	mem.ArenaBins
	// BumpOccupancy is ReservedWords/PartitionWords;
	// ExternalFragRatio is FreeWords/ReservedWords (free-but-held
	// address space), 0 when nothing is reserved.
	BumpOccupancy     float64 `json:"bumpOccupancy"`
	ExternalFragRatio float64 `json:"externalFragRatio"`
}

// OSLayer is the simulated OS layer's inventory (mem.Heap), the part
// every backend has: all six draw their superblocks, arenas, trees and
// large blocks from it as regions.
type OSLayer struct {
	LiveWords    uint64        `json:"liveWords"`
	MaxLiveWords uint64        `json:"maxLiveWords"`
	RegionAllocs uint64        `json:"regionAllocs"`
	RegionFrees  uint64        `json:"regionFrees"`
	Arenas       []ArenaCensus `json:"arenas"`
	// ExternalFragRatio is the bin-parked words over reserved words
	// across all arenas.
	ExternalFragRatio float64 `json:"externalFragRatio"`
}

// TakeOS inventories h from its counters alone: bump/live/skip counters
// from Stats, bin census from the push/pop-maintained counters. Safe
// during churn.
func TakeOS(h *mem.Heap) *OSLayer {
	// Bins before Stats: a region can sit in a bin only after the bump
	// that reserved it was counted, and ReservedWords never falls, so a
	// later reading of it covers every region the earlier bin census saw
	// and the ratios below stay within [0, 1] under churn. The other
	// order let a walk that began beside the first superblock's birth
	// report more free words than reserved ones.
	bins := h.BinCensus()
	hs := h.Stats()
	o := &OSLayer{
		LiveWords:    hs.LiveWords,
		MaxLiveWords: hs.MaxLiveWords,
		RegionAllocs: hs.RegionAllocs,
		RegionFrees:  hs.RegionFrees,
		Arenas:       make([]ArenaCensus, len(bins)),
	}
	var totFree, totReserved uint64
	for i, b := range bins {
		ac := ArenaCensus{ArenaStats: hs.Arenas[i], ArenaBins: b}
		if ac.PartitionWords > 0 {
			ac.BumpOccupancy = float64(ac.ReservedWords) / float64(ac.PartitionWords)
		}
		if ac.ReservedWords > 0 {
			ac.ExternalFragRatio = float64(ac.FreeWords) / float64(ac.ReservedWords)
		}
		totFree += ac.FreeWords
		totReserved += ac.ReservedWords
		o.Arenas[i] = ac
	}
	if totReserved > 0 {
		o.ExternalFragRatio = float64(totFree) / float64(totReserved)
	}
	return o
}

func (o *OSLayer) Key() string { return "os" }

func (o *OSLayer) WriteText(w io.Writer) {
	fmt.Fprintf(w, "heap: %d words live (max-live %d KiB), %d region allocs / %d frees, external fragmentation %.1f%%\n",
		o.LiveWords, o.MaxLiveWords*mem.WordBytes/1024, o.RegionAllocs, o.RegionFrees, 100*o.ExternalFragRatio)
	fmt.Fprintf(w, "\nRegion arenas (%d):\n", len(o.Arenas))
	tw := table(w, tabwriter.AlignRight,
		"arena\treserved\tmaterialized\tlive\tskipped\tallocs\tfrees\treused\tsteals\tfree regions\tfree words\toccupancy\text frag\t")
	nbins := 0
	for _, ac := range o.Arenas {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f%%\t%.1f%%\t\n",
			ac.Arena, ac.ReservedWords, ac.MaterializedWords, ac.LiveWords, ac.SkippedWords,
			ac.RegionAllocs, ac.RegionFrees, ac.ReusedRegions, ac.Steals,
			ac.FreeRegions, ac.FreeWords, 100*ac.BumpOccupancy, 100*ac.ExternalFragRatio)
		nbins += len(ac.Bins)
	}
	tw.Flush()
	fmt.Fprintln(w, "(words; allocs/reused/steals are request-side, the rest partition-side)")
	if nbins == 0 {
		fmt.Fprintln(w, "\nRegion bins: empty (no free regions awaiting reuse)")
		return
	}
	fmt.Fprintln(w, "\nRegion-bin occupancy (free regions awaiting reuse):")
	tw = table(w, tabwriter.AlignRight, "arena\tregion words\tregions\t")
	for _, ac := range o.Arenas {
		for _, b := range ac.Bins {
			fmt.Fprintf(tw, "%d\t%d\t%d\t\n", b.Arena, b.RegionWords, b.Regions)
		}
	}
	tw.Flush()
}

func (o *OSLayer) writeMetrics(p *promWriter) {
	p.header("census_arena_words", "Region-arena word inventory.", "gauge")
	p.header("census_arena_free_regions", "Free regions parked in arena bins.", "gauge")
	p.header("census_external_frag_ratio", "Free-bin words over reserved words by arena.", "gauge")
	for _, ac := range o.Arenas {
		ar := strconv.Itoa(ac.Arena)
		p.sample("census_arena_words", float64(ac.PartitionWords), "arena", ar, "kind", "partition")
		p.sample("census_arena_words", float64(ac.ReservedWords), "arena", ar, "kind", "reserved")
		p.sample("census_arena_words", float64(ac.MaterializedWords), "arena", ar, "kind", "materialized")
		p.sample("census_arena_words", float64(ac.LiveWords), "arena", ar, "kind", "live")
		p.sample("census_arena_words", float64(ac.FreeWords), "arena", ar, "kind", "free")
		p.sample("census_arena_free_regions", float64(ac.FreeRegions), "arena", ar)
		p.sample("census_external_frag_ratio", ac.ExternalFragRatio, "arena", ar)
	}
}
