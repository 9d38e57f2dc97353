// Command alloctrace generates, inspects, and replays allocation
// traces against the registered allocators.
//
//	alloctrace gen  -pattern private|prodcons|bursty -events N -threads T -o trace.bin
//	alloctrace info -i trace.bin
//	alloctrace run  -i trace.bin [-allocs lockfree,hoard,...] [-procs N]
//
// Replays are deterministic (a total order of events), so a trace that
// exposes a bug replays it identically every time.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"repro/alloc"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one subcommand and returns the exit status: 2 for a
// usage error, 1 for a failed operation.
func run(args []string, stdout, stderr io.Writer) int {
	cmds := map[string]func(*flag.FlagSet, []string, io.Writer) error{
		"gen": cmdGen, "info": cmdInfo, "run": cmdRun,
	}
	if len(args) == 0 || cmds[args[0]] == nil {
		fmt.Fprintln(stderr, "usage: alloctrace gen|info|run [flags]")
		return 2
	}
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	switch err := cmds[args[0]](fs, args[1:], stdout); err {
	case nil:
		return 0
	case errUsage:
		return 2
	default:
		fmt.Fprintf(stderr, "alloctrace: %v\n", err)
		return 1
	}
}

// errUsage: the flag set has already printed what was wrong.
var errUsage = errors.New("usage")

func cmdGen(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	pattern := fs.String("pattern", "private", "private|prodcons|bursty")
	events := fs.Int("events", 100000, "trace length")
	threads := fs.Int("threads", 4, "thread count")
	seed := fs.Int64("seed", 1, "PRNG seed")
	minSize := fs.Uint64("min", 8, "min payload bytes")
	maxSize := fs.Uint64("max", 256, "max payload bytes")
	out := fs.String("o", "trace.bin", "output file")
	if fs.Parse(args) != nil {
		return errUsage
	}

	var p trace.Pattern
	switch *pattern {
	case "private":
		p = trace.Private
	case "prodcons":
		p = trace.ProducerConsumer
	case "bursty":
		p = trace.Bursty
	default:
		return fmt.Errorf("unknown pattern %q", *pattern)
	}
	tr := trace.Generate(trace.GenConfig{
		Threads: *threads,
		Events:  *events,
		Seed:    *seed,
		Pattern: p,
		MinSize: *minSize,
		MaxSize: *maxSize,
	})
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.Write(f); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	s := tr.Stats()
	fmt.Fprintf(stdout, "wrote %s: %d events (%d mallocs, %d frees), max live %d blocks / %d bytes\n",
		*out, s.Events, s.Mallocs, s.Frees, s.MaxLive, s.MaxBytes)
	return nil
}

func loadTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return tr, nil
}

func cmdInfo(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	in := fs.String("i", "trace.bin", "input file")
	if fs.Parse(args) != nil {
		return errUsage
	}
	tr, err := loadTrace(*in)
	if err != nil {
		return err
	}
	s := tr.Stats()
	fmt.Fprintf(stdout, "trace %s:\n  threads  %d\n  events   %d\n  mallocs  %d\n  frees    %d\n",
		*in, tr.Threads, s.Events, s.Mallocs, s.Frees)
	fmt.Fprintf(stdout, "  max live %d blocks, %d bytes\n  end live %d blocks\n",
		s.MaxLive, s.MaxBytes, s.EndLive)
	return nil
}

func cmdRun(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	in := fs.String("i", "trace.bin", "input file")
	allocs := fs.String("allocs", "", "comma-separated allocators (default all)")
	procs := fs.Int("procs", 0, "processor heaps (default trace threads)")
	if fs.Parse(args) != nil {
		return errUsage
	}
	tr, err := loadTrace(*in)
	if err != nil {
		return err
	}

	names := alloc.Names()
	if *allocs != "" {
		names = strings.Split(*allocs, ",")
	}
	p := *procs
	if p == 0 {
		p = tr.Threads
	}
	w := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "allocator\tevents/s\tmax live B\t")
	for _, name := range names {
		a, err := alloc.New(name, alloc.Options{Processors: p})
		if err != nil {
			return err
		}
		res, err := trace.Replay(tr, a)
		if err != nil {
			return fmt.Errorf("replay on %s: %w", name, err)
		}
		fmt.Fprintf(w, "%s\t%.0f\t%d\t\n", name, res.EventsPerSec(), res.MaxLiveBytes)
	}
	return w.Flush()
}
