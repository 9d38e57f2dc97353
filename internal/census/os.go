package census

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/mem"
)

// OSLayer is the simulated OS layer's inventory (mem.Heap), the part
// every backend has: all six draw their superblocks, arenas, trees and
// large blocks from it as regions. It is mem's own counters and bin
// census, plus the two ratios derived from them.
type OSLayer struct {
	mem.Stats
	TotalWords  uint64        `json:"totalWords"` // the address space
	FreeRegions uint64        `json:"freeRegions"`
	FreeWords   uint64        `json:"freeWords"`
	Bins        []mem.BinStat `json:"bins"`
	// BumpOccupancy is ReservedWords/TotalWords; ExternalFragRatio is
	// FreeWords/ReservedWords (free-but-held address space), 0 when
	// nothing is reserved.
	BumpOccupancy     float64 `json:"bumpOccupancy"`
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
	o := &OSLayer{Bins: h.BinCensus()}
	o.Stats, o.TotalWords = h.Stats(), h.TotalWords()
	for _, b := range o.Bins {
		o.FreeRegions += uint64(b.Regions)
		o.FreeWords += uint64(b.Regions) * b.RegionWords
	}
	o.BumpOccupancy = float64(o.ReservedWords) / float64(o.TotalWords)
	if o.ReservedWords > 0 {
		o.ExternalFragRatio = float64(o.FreeWords) / float64(o.ReservedWords)
	}
	return o
}

func (o *OSLayer) Key() string { return "os" }

func (o *OSLayer) WriteText(w io.Writer) {
	fmt.Fprintf(w, "heap: %d words live (max-live %d KiB), %d region allocs / %d frees, external fragmentation %.1f%%\n",
		o.LiveWords, o.MaxLiveWords*mem.WordBytes/1024, o.RegionAllocs, o.RegionFrees, 100*o.ExternalFragRatio)
	fmt.Fprintln(w, "\nOS layer (words):")
	tw := table(w, tabwriter.AlignRight,
		"reserved\tlive\tskipped\tallocs\tfrees\treused\tfree regions\tfree words\toccupancy\text frag\t")
	fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f%%\t%.1f%%\t\n",
		o.ReservedWords, o.LiveWords, o.SkippedWords,
		o.RegionAllocs, o.RegionFrees, o.ReusedRegions,
		o.FreeRegions, o.FreeWords, 100*o.BumpOccupancy, 100*o.ExternalFragRatio)
	tw.Flush()
	if len(o.Bins) == 0 {
		fmt.Fprintln(w, "\nRegion bins: empty (no free regions awaiting reuse)")
		return
	}
	fmt.Fprintln(w, "\nRegion-bin occupancy (free regions awaiting reuse):")
	tw = table(w, tabwriter.AlignRight, "region words\tregions\t")
	for _, b := range o.Bins {
		fmt.Fprintf(tw, "%d\t%d\t\n", b.RegionWords, b.Regions)
	}
	tw.Flush()
}

func (o *OSLayer) writeMetrics(p *promWriter) {
	p.header("census_os_words", "OS-layer word inventory.", "gauge")
	p.header("census_os_free_regions", "Free regions parked in the OS layer's bins.", "gauge")
	p.header("census_external_frag_ratio", "Free-bin words over reserved words.", "gauge")
	p.sample("census_os_words", float64(o.TotalWords), "kind", "total")
	p.sample("census_os_words", float64(o.ReservedWords), "kind", "reserved")
	p.sample("census_os_words", float64(o.LiveWords), "kind", "live")
	p.sample("census_os_words", float64(o.FreeWords), "kind", "free")
	p.sample("census_os_free_regions", float64(o.FreeRegions))
	p.sample("census_external_frag_ratio", o.ExternalFragRatio)
}
