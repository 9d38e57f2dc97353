// Command heapinfo prints the allocator's compile-time geometry: the
// size-class table (payload, block words, blocks per superblock), the
// packed-word layouts of Figure 3, the large-allocation threshold, and
// the allocator registry (one "backend <name> ..." line per entry of
// alloc.Backends: aliases, shadow-oracle policy, number of kill points).
// Useful for sanity-checking configuration against the paper.
//
//	heapinfo [-live] [-alloc lockfree] [-threads 4] [-ops 50000]
//	         [-samplerate 1024] [-magazine N]
//
// With -live, a short multithreaded malloc/free workload (churn.Mixed)
// is run on a fresh allocator from alloc.New — any registry entry,
// -alloc names it; the lock-free one is built with the hyperblock layer
// on — the backend's strict check is run on the drained allocator, and
// the allocator's census (alloc.Harness.Census) is printed twice: as
// taken while the workload's final live set was still held, and again
// after the drain. A census has the parts the backend has — the OS
// layer for all six (region counters, bin occupancy, external
// fragmentation); for lockfree its path counters, per-class superblock
// states and block inventory, descriptor pool, and the sampler's
// live-block ages and top call sites; for buddy the per-order
// free/used table — each rendered by internal/census. The telemetry
// snapshot follows. The shape flag, -magazine, is that of mlfstress and
// allocmon; -samplerate sets the allocation sampling period (0 =
// sampler off).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/alloc"
	"repro/internal/atomicx"
	"repro/internal/bench"
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
		rate    = fs.Int("samplerate", 1024, "allocation sampling period for the census (-live; 0 = off)")
		af      = bench.RegisterBackendFlags(fs)
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
		if err := runLive(stdout, af, *threads, *ops, *rate); err != nil {
			fmt.Fprintf(stderr, "heapinfo: %v\n", err)
			return 1
		}
	}
	return 0
}

// runLive exercises a fresh allocator and prints its census as taken
// between churn finishing and the workers releasing their final live
// sets — so it has real live blocks to inventory — and again drained.
func runLive(out io.Writer, af *bench.BackendFlags, threads, ops, rate int) error {
	rec := core.NewRecorder(telemetry.Config{SampleRate: rate})
	a, cfg, err := af.New(core.Config{Processors: threads, Hyperblocks: true, Telemetry: rec}, alloc.Options{})
	if err != nil {
		return err
	}
	h := alloc.HarnessOf(a)
	var held *census.Census
	if _, _, err := churn.Run(threads, ops, 0, churn.Mixed, a.NewThread, func() { held = h.Census() }); err != nil {
		return fmt.Errorf("malloc: %w", err)
	}
	// Everything is freed again, so the backend's strict check applies.
	if rep := h.Inspect(0); rep.InvariantErr != nil {
		return rep.InvariantErr
	}
	fmt.Fprintf(out, "Live statistics (%s, %d threads x %d ops; lockfree is built with hyper=%v magazine=%d):\n",
		a.Name(), threads, ops, cfg.Hyperblocks, cfg.MagazineSize)
	fmt.Fprintln(out, "\nCensus with workload live sets held:")
	held.WriteText(out)
	fmt.Fprintln(out, "\nCensus after drain:")
	h.Census().WriteText(out)
	fmt.Fprintf(out, "\n%s", rec.Snapshot().Text(8))
	return nil
}
