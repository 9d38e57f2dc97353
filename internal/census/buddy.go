package census

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/buddy"
)

// BuddyOrder is one block order's inventory across the buddy forest.
type BuddyOrder struct {
	// Order is the tree level (0 = whole-tree blocks); BlockWords the
	// block size served at this order.
	Order      int    `json:"order"`
	BlockWords uint64 `json:"blockWords"`
	// Free counts maximal free blocks (not contained in a larger free
	// block); Used counts allocated blocks of exactly this order.
	Free uint64 `json:"free"`
	Used uint64 `json:"used"`
}

// Buddy is the non-blocking buddy allocator's forest (internal/buddy).
// The order table is its fragmentation signature — many small free
// blocks with no large ones left is external fragmentation made visible.
type Buddy struct {
	// Stats snapshots the allocator's geometry (published trees, words
	// a tree, leaf block size) and operation counters.
	Stats buddy.Stats `json:"stats"`

	// Orders is the per-order free/used table, largest blocks first.
	Orders []BuddyOrder `json:"orders"`

	// FreeWords/UsedWords sum the order table; ExternalFragRatio is
	// 1 − largestFreeBlock/freeWords: 0 when all free space is one
	// block, approaching 1 as free space shatters into leaf fragments
	// a large request cannot use.
	FreeWords         uint64  `json:"freeWords"`
	UsedWords         uint64  `json:"usedWords"`
	ExternalFragRatio float64 `json:"externalFragRatio"`

	// CoalBits counts in-flight (or kill-stranded) coalescing marks.
	CoalBits int `json:"coalBits"`
}

// TakeBuddy walks the buddy forest. Like TakeLockFree it is lock-free
// and racy-consistent: safe during concurrent malloc/free, exact at
// quiescence.
func TakeBuddy(b *buddy.Allocator) *Buddy {
	bc := &Buddy{Stats: b.Stats(), CoalBits: b.CoalBits()}
	orders := b.OrderCensus()
	bc.Orders = make([]BuddyOrder, len(orders))
	var largestFree uint64
	for i, o := range orders {
		bc.Orders[i] = BuddyOrder{
			Order:      i,
			BlockWords: o.BlockWords,
			Free:       o.Free,
			Used:       o.Used,
		}
		bc.FreeWords += o.Free * o.BlockWords
		bc.UsedWords += o.Used * o.BlockWords
		if o.Free > 0 && largestFree == 0 {
			largestFree = o.BlockWords // orders run largest block first
		}
	}
	if bc.FreeWords > 0 {
		bc.ExternalFragRatio = 1 - float64(largestFree)/float64(bc.FreeWords)
	}
	return bc
}

func (bc *Buddy) Key() string { return "buddy" }

func (bc *Buddy) WriteText(w io.Writer) {
	s := bc.Stats
	fmt.Fprintf(w, "buddy: %d trees x %d words, %d grows (%d lost races), %d hint hits, %d scans, %d/%d beyond-tree\n",
		s.Trees, s.TreeWords, s.Grows, s.GrowRaces, s.HintHits, s.Scans, s.LargeMallocs, s.LargeFrees)
	fmt.Fprintf(w, "\nBuddy order census: ext frag %.1f%%, %d coal bits\n", 100*bc.ExternalFragRatio, bc.CoalBits)
	tw := table(w, tabwriter.AlignRight, "order\tblock words\tfree\tused\t")
	for _, o := range bc.Orders {
		if o.Free == 0 && o.Used == 0 {
			continue
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t\n", o.Order, o.BlockWords, o.Free, o.Used)
	}
	tw.Flush()
}
