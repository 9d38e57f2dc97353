// Command heapinfo prints the allocator's compile-time geometry: the
// size-class table (payload, block words, blocks per superblock), the
// packed-word layouts of Figure 3, the large-allocation threshold, and
// the allocator registry (one "backend <name> ..." line per entry of
// alloc.Backends: aliases, shadow-oracle policy, number of kill points).
// Useful for sanity-checking configuration against the paper.
//
//	heapinfo [-live] [-threads 4] [-ops 50000] [-arenas N] [-samplerate 1024]
//	heapinfo -live -buddy
//
// With -live, a short multithreaded malloc/free workload (churn.Mixed)
// is run on a fresh allocator from alloc.New (the lock-free one with
// the hyperblock layer enabled), the backend's strict check is run on
// the drained allocator, and the resulting statistics are printed: the
// backend's own summary, descriptor-pool and heap
// counters, a per-arena breakdown of the OS layer with region-bin
// occupancy, the telemetry snapshot, and a heap census taken while the
// workload's final live set is still held — per-class superblock
// states and block inventory, internal/external fragmentation,
// live-block age quantiles, and the call sites holding the most live
// bytes. -arenas overrides the region-arena count (0 = one per
// processor heap, 1 = unsharded); -samplerate sets the allocation
// sampling period (0 = sampler off).
//
// With -buddy, the same -live workload runs on the registry's "buddy"
// backend (internal/buddy) instead, and the census printed is its
// per-order free/used block table with the external-fragmentation
// ratio, held and again after the drain.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"repro/alloc"
	"repro/internal/atomicx"
	"repro/internal/census"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sizeclass"
	"repro/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("heapinfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		live    = fs.Bool("live", false, "run a short workload and print live allocator statistics")
		threads = fs.Int("threads", 4, "workload goroutines (-live)")
		ops     = fs.Int("ops", 50000, "operations per goroutine (-live)")
		arenas  = fs.Int("arenas", 0, "region arenas (-live; 0 = one per processor, 1 = unsharded)")
		rate    = fs.Int("samplerate", 1024, "allocation sampling period for the census (-live; 0 = off)")
		useBud  = fs.Bool("buddy", false, "run the -live workload on the non-blocking buddy allocator")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fmt.Fprintln(stdout, "Packed word layouts (paper Figure 3):")
	fmt.Fprintf(stdout, "  anchor: avail:%d count:%d state:%d tag:%d (bits)\n",
		atomicx.AnchorAvailBits, atomicx.AnchorCountBits,
		atomicx.AnchorStateBits, atomicx.AnchorTagBits)
	fmt.Fprintf(stdout, "  active: ptr:%d credits:%d  (MAXCREDITS=%d)\n",
		atomicx.ActivePtrBits, atomicx.ActiveCreditsBits, atomicx.MaxCredits)
	fmt.Fprintf(stdout, "  tagged index: idx:%d tag:%d\n\n",
		atomicx.TaggedIdxBits, atomicx.TaggedTagBits)

	fmt.Fprintf(stdout, "Superblock: %d words (%d KiB); word = %d bytes (block prefix)\n",
		sizeclass.SuperblockWords, sizeclass.SuperblockWords*mem.WordBytes/1024, mem.WordBytes)
	fmt.Fprintf(stdout, "Large-allocation threshold: > %d payload bytes -> direct OS region\n\n",
		sizeclass.MaxPayloadBytes)

	w := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "class\tpayload B\tblock words\tblocks/SB\twaste/SB words\t")
	for _, c := range sizeclass.All() {
		waste := c.SBWords - c.MaxCount*c.BlockWords
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t\n",
			c.Index, c.PayloadBytes, c.BlockWords, c.MaxCount, waste)
	}
	w.Flush()

	// One line per registry entry, in a form scripts can cut: ci/verify.sh
	// reads the backends and which of them can be kill-swept from here.
	fmt.Fprintln(stdout, "\nAllocator registry (alloc.Backends): shadow-oracle policy and kill points")
	for _, b := range alloc.Backends() {
		fmt.Fprintf(stdout, "backend %s aliases=%v verify-on-reuse=%v header-mask=%#x kill-points=%d\n",
			b.Name, b.Aliases, b.VerifyOnReuse, b.PrefixIgnoreMask, len(b.HookPoints))
	}

	if *live {
		fmt.Fprintln(stdout)
		if err := runLive(stdout, *useBud, *threads, *ops, *arenas, *rate); err != nil {
			fmt.Fprintf(stderr, "heapinfo: %v\n", err)
			return 1
		}
	}
	return 0
}

// runLive exercises a fresh allocator — the lock-free one with the
// hyperblock layer, or the buddy — and prints its statistics and a
// census taken between churn finishing and the workers releasing their
// final live sets, so the census has real live blocks to inventory.
func runLive(out io.Writer, useBuddy bool, threads, ops, arenas, rate int) error {
	name := "lockfree"
	if useBuddy {
		name = "buddy"
	}
	rec := core.NewRecorder(telemetry.Config{SampleRate: rate})
	a, err := alloc.New(name, alloc.Options{
		Processors: threads,
		HeapConfig: mem.Config{Arenas: arenas},
		LockFree:   core.Config{Hyperblocks: true, Telemetry: rec},
	})
	if err != nil {
		return err
	}
	h := alloc.HarnessOf(a)
	var held *census.Census
	if _, _, err := churn.Run(threads, ops, 0, churn.Mixed, a.NewThread, func() { held = h.Census() }); err != nil {
		return fmt.Errorf("malloc: %w", err)
	}
	// Everything is freed again, so the backend's strict check applies.
	rep := h.Inspect(0)
	if rep.InvariantErr != nil {
		return rep.InvariantErr
	}
	fmt.Fprintf(out, "Live statistics (%s, %d threads x %d ops):\n%s", a.Name(), threads, ops, rep.Summary)
	if ca, ok := a.(alloc.CoreAccessor); ok {
		printHeap(out, ca.Core())
		printCensus(out, held)
		fmt.Fprintf(out, "\n%s", rec.Snapshot().Text(8))
		return nil
	}
	// The buddy's census is its order-occupancy table: once with the
	// live sets held, then after the drain, when coalescing has rebuilt
	// whole-tree blocks.
	printBuddyCensus(out, "with workload live sets held", held.Buddy)
	printBuddyCensus(out, "after drain (fully coalesced)", h.Census().Buddy)
	return nil
}

// printHeap prints the lock-free allocator's descriptor-pool and OS-layer
// state: what its Report.Summary leaves out.
func printHeap(out io.Writer, a *core.Allocator) {
	s := a.Stats()
	fmt.Fprintf(out, "desc pool: %s backend, %d stripes, free per stripe %v\n",
		a.DescAlgo(), a.DescStripes(), a.DescStripeFree())
	fmt.Fprintf(out, "heap: %d words live, %d region allocs / %d frees; %d large mallocs, %d empty-partial skips\n",
		s.Heap.LiveWords, s.Heap.RegionAllocs, s.Heap.RegionFrees, s.Ops.LargeMallocs, s.Ops.EmptyPartialSkips)

	fmt.Fprintf(out, "\nRegion arenas (%d):\n", a.Heap().Arenas())
	w := tabwriter.NewWriter(out, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "arena\treserved\tlive\tskipped\tallocs\tfrees\treused\tsteals\t")
	for i, as := range s.Heap.Arenas {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			i, as.ReservedWords, as.LiveWords, as.SkippedWords,
			as.RegionAllocs, as.RegionFrees, as.ReusedRegions, as.Steals)
	}
	w.Flush()
	fmt.Fprintln(out, "(words; allocs/reused/steals are request-side, the rest partition-side)")

	if bins := a.Heap().RegionBins(); len(bins) > 0 {
		fmt.Fprintln(out, "\nRegion-bin occupancy (free regions awaiting reuse):")
		w = tabwriter.NewWriter(out, 0, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(w, "arena\tregion words\tregions\t")
		for _, b := range bins {
			fmt.Fprintf(w, "%d\t%d\t%d\t\n", b.Arena, b.RegionWords, b.Regions)
		}
		w.Flush()
	} else {
		fmt.Fprintln(out, "\nRegion bins: empty (no free regions awaiting reuse)")
	}
}

// printBuddyCensus renders one order-occupancy table.
func printBuddyCensus(out io.Writer, when string, bc *census.BuddyCensus) {
	fmt.Fprintf(out, "\nBuddy order census (%s): ext frag %.1f%%, %d coal bits\n",
		when, 100*bc.ExternalFragRatio, bc.CoalBits)
	w := tabwriter.NewWriter(out, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "order\tblock words\tfree\tused\t")
	for _, o := range bc.Orders {
		if o.Free == 0 && o.Used == 0 {
			continue
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t\n", o.Order, o.BlockWords, o.Free, o.Used)
	}
	w.Flush()
}

// printCensus renders the heap census taken at peak liveness: per-class
// and per-arena inventory, fragmentation, live-block ages, and the top
// call sites by live bytes.
func printCensus(out io.Writer, c *census.Census) {
	fmt.Fprintln(out, "\nHeap census (taken with workload live sets held):")
	w := tabwriter.NewWriter(out, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "class\tA\tF\tP\tE\tused\tfree\tresv\tmag\tpartial\tint frag\t")
	for _, cc := range c.Classes {
		if cc.Superblocks == [4]uint64{} && cc.MagazineCached == 0 {
			continue
		}
		frag := "-"
		if cc.SampledLive > 0 {
			frag = fmt.Sprintf("%.1f%%", 100*cc.InternalFragRatio)
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t\n",
			cc.Class,
			cc.Superblocks[atomicx.StateActive], cc.Superblocks[atomicx.StateFull],
			cc.Superblocks[atomicx.StatePartial], cc.Superblocks[atomicx.StateEmpty],
			cc.BlocksUsed, cc.BlocksFree, cc.BlocksReserved,
			cc.MagazineCached, cc.PartialList, frag)
	}
	w.Flush()
	fmt.Fprintf(out, "totals: %d superblocks, blocks used=%d free=%d resv=%d mag=%d, carve waste %d words\n",
		c.Totals.Superblocks, c.Totals.BlocksUsed, c.Totals.BlocksFree,
		c.Totals.BlocksReserved, c.Totals.MagazineCached, c.Totals.CarveWasteWords)

	fmt.Fprintln(out, "\nArena census (bump occupancy and external fragmentation):")
	w = tabwriter.NewWriter(out, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "arena\treserved\tfree regions\tfree words\toccupancy\text frag\t")
	for _, ac := range c.Arenas {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.1f%%\t%.1f%%\t\n",
			ac.Arena, ac.ReservedWords, ac.FreeRegions, ac.FreeWords,
			100*ac.BumpOccupancy, 100*ac.ExternalFragRatio)
	}
	w.Flush()

	if !c.Sampler.Enabled {
		fmt.Fprintln(out, "\nAllocation sampler off (-samplerate 0): no age or call-site census")
		return
	}
	fmt.Fprintf(out, "\nLive-block ages (%d samples at rate 1/%d): p50=%v p99=%v oldest=%v\n",
		c.Ages.Count(), c.Sampler.Rate,
		time.Duration(c.AgeP50NS), time.Duration(c.AgeP99NS), time.Duration(c.OldestNS))
	if c.Totals.InternalFragRatio >= 0 {
		fmt.Fprintf(out, "sampled internal fragmentation: %.1f%% (external %.1f%%)\n",
			100*c.Totals.InternalFragRatio, 100*c.Totals.ExternalFragRatio)
	}
	if len(c.Sites) > 0 {
		fmt.Fprintln(out, "\nTop call sites by live sampled bytes:")
		w = tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
		fmt.Fprintln(w, "live\tbytes\toldest\tsite\t")
		for i, sc := range c.Sites {
			if i == 5 {
				break
			}
			site := sc.Func
			if site == "" {
				site = fmt.Sprintf("pc=%#x", sc.PC)
			} else {
				site = fmt.Sprintf("%s (%s:%d)", sc.Func, sc.File, sc.Line)
			}
			fmt.Fprintf(w, "%d\t%d\t%v\t%s\t\n",
				sc.Live, sc.LiveBytes, time.Duration(sc.OldestNS), site)
		}
		w.Flush()
	}
}
