// Command heapinfo prints the allocator's compile-time geometry: the
// size-class table (payload, block words, superblock words, blocks per
// superblock), the packed-word layouts of Figure 3, the
// large-allocation threshold, and the allocator registry (one
// "backend <name> ..." line per entry of alloc.Backends: aliases,
// shadow-oracle policy, number of kill points).
// Useful for sanity-checking configuration against the paper.
//
//	heapinfo
//
// It runs no workload. For the census of a running allocator use
// allocmon (allocmon -once prints one dashboard and exits); for the
// census after a run and the backend's strict check, mlfstress.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/alloc"
	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/sizeclass"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("heapinfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
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

	fmt.Fprintf(stdout, "Word = %d bytes (block prefix)\n", mem.WordBytes)
	fmt.Fprintf(stdout, "Large-allocation threshold: > %d payload bytes -> direct OS region\n\n",
		sizeclass.MaxPayloadBytes)

	w := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "class\tpayload B\tblock words\tSB words\tblocks/SB\twaste/SB words\t")
	for _, c := range sizeclass.All() {
		waste := c.SBWords - c.MaxCount*c.BlockWords
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t\n",
			c.Index, c.PayloadBytes, c.BlockWords, c.SBWords, c.MaxCount, waste)
	}
	w.Flush()

	// One line per registry entry, in a form scripts can cut: ci/verify.sh
	// reads the backends and which of them can be kill-swept from here.
	fmt.Fprintln(stdout, "\nAllocator registry (alloc.Backends): shadow-oracle policy and kill points")
	for _, b := range alloc.Backends() {
		fmt.Fprintf(stdout, "backend %s aliases=%v verify-on-reuse=%v header-mask=%#x kill-points=%d\n",
			b.Name, b.Aliases, b.VerifyOnReuse, b.PrefixIgnoreMask, len(b.HookPoints))
	}
	return 0
}
