package report

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/alloc"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// spec is one experiment as data: which allocators (subjects) run which
// workloads at which thread counts, against what reference, and how the
// results are laid out. Every artifact of the paper's §4 has this
// shape; run is the only code that executes one.
type spec struct {
	layout layout
	// title heads the table or figure; a spec with several workloads
	// titles each one "<title>: <workload> at <n> threads".
	title     string
	head      string    // header of the label column
	subjects  []subject // nil: every allocator RunConfig.Allocators selects
	workloads []bench.Workload
	threads   []int // one (contention-free), the last count listed, or all of them (a figure's x-axis)
	// ref names what every column's value may be taken against: "" for
	// nothing, firstRow, or a registered allocator measured on each
	// workload at one thread (libc: the paper's contention-free serial
	// malloc). -allocs never filters it.
	ref string
	// telemetry hands every allocator a recorder whatever the run
	// configuration says, for a spec whose columns are its counters.
	telemetry bool
	columns   []column
	// last is a byWorkload table's closing column, computed from the
	// row's workload and its subjects' values by allocator name.
	last *rowColumn
	// extra yields rows measured outside any allocator, appended to a
	// bySubject table through the same columns and labelled by their
	// Allocator field.
	extra func() []bench.Result
	notes []string
}

// layout is one of the three shapes §4 prints its results in.
type layout int

const (
	bySubject   layout = iota // one table per workload: a row per subject, a column per metric
	byWorkload                // one table: a row per workload, a column per subject, one metric
	overThreads               // one figure per workload: a series per subject over the thread counts, one metric
)

const (
	firstRow = "(first row)" // spec.ref: the first subject's own result
	libc     = "serial"      // spec.ref: the paper's denominator, contention-free libc malloc
)

// subject is one allocator under test: a registry entry, optionally
// with an edit of the options it is built from and a label saying so.
type subject struct {
	name  string // alloc registry name
	label string // row, column or series label; "" = name
	edit  func(*alloc.Options)
	// walked runs every workload with a census walker beside it
	// (bench.Walked).
	walked bool
}

func (s subject) String() string {
	if s.label == "" {
		return s.name
	}
	return s.label
}

// column is one number taken from a cell's result (and the reference's)
// and how it prints. NaN prints as "-": the result has no such number.
type column struct {
	name  string
	value func(r, ref bench.Result) float64
	show  func(float64) string // nil: fixed(0)
	// space: the number is the median of the cell's runs, printed with
	// their min–max, not the fastest run's. A run's speed says nothing
	// about its space.
	space bool
}

// over is c's number over one cell's runs, and its text.
func (c column) over(runs []bench.Result, ref bench.Result) (float64, string) {
	if !c.space {
		v := c.value(fastest(runs), ref)
		return v, c.text(v)
	}
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = c.value(r, ref)
	}
	slices.Sort(vs)
	median := vs[len(vs)/2]
	return median, fmt.Sprintf("%s (%s–%s)", c.text(median), c.text(vs[0]), c.text(vs[len(vs)-1]))
}

// fastest is the run with the highest throughput.
func fastest(runs []bench.Result) bench.Result {
	var best bench.Result
	for _, r := range runs {
		if r.OpsPerSec() > best.OpsPerSec() {
			best = r
		}
	}
	return best
}

func (c column) text(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case c.show == nil:
		return fixed(0)(v)
	}
	return c.show(v)
}

type rowColumn struct {
	name string
	cell func(w bench.Workload, byName map[string]float64) string
}

func fixed(prec int) func(float64) string {
	return func(v float64) string { return strconv.FormatFloat(v, 'f', prec, 64) }
}

func percent(v float64) string  { return fixed(1)(v) + "%" }
func duration(v float64) string { return time.Duration(v).String() }

// check reports what makes s impossible to run or to lay out.
func (s spec) check() error {
	switch {
	case len(s.workloads) == 0:
		return fmt.Errorf("no workload")
	case s.subjects != nil && len(s.subjects) == 0:
		return fmt.Errorf("no subject")
	case len(s.columns) == 0 || s.layout != bySubject && len(s.columns) != 1:
		return fmt.Errorf("%d columns; a figure or a table by workload shows exactly one", len(s.columns))
	case s.ref != "" && s.ref != firstRow && !slices.Contains(alloc.Names(), s.ref):
		return fmt.Errorf("reference %q is not a registered allocator", s.ref)
	}
	return nil
}

// selected is s's subject list under -allocs: the named allocators
// themselves for a spec that lists none, else the listed subjects whose
// allocator is among them.
func (s spec) selected(names []string) []subject {
	var subs []subject
	if s.subjects == nil {
		for _, name := range names {
			subs = append(subs, subject{name: name})
		}
	}
	for _, sub := range s.subjects {
		if slices.Contains(names, sub.name) {
			subs = append(subs, sub)
		}
	}
	return subs
}

func (s spec) titleOf(w bench.Workload) string {
	if len(s.workloads) == 1 {
		return s.title
	}
	return fmt.Sprintf("%s: %s at %d threads", s.title, w.Name(), s.threads[0])
}

func (s spec) row(label string, runs []bench.Result, ref bench.Result) []string {
	cells := []string{label}
	for _, c := range s.columns {
		_, text := c.over(runs, ref)
		cells = append(cells, text)
	}
	return cells
}

// repetitions behind every reported number; single runs on an
// oversubscribed host jitter by up to 2x, so a throughput is the best of
// them and a space number their median (column.space).
const scalarReps = 3

// cell is what one reported number measures: a subject on a workload
// at a thread count.
type cell struct {
	sub     subject
	w       bench.Workload
	threads int
}

// measure is the one measuring loop: scalarReps rounds over cells, each
// round one run of every cell, so a transient slowdown of the host costs
// a cell one of its runs, not all of them. (On a 2-vCPU VM two
// goroutines read the clock at half speed for about a second after an
// idle spell, and the first cell of a process read 3.1-3.3 M ops/s where
// later runs read 5-6 M.) The first cell runs once more before the
// rounds, unrecorded, so that no cell's numbers include the process's
// cold first run (15.5-20.8 M ops/s where the same cell's later runs
// read 22-35 M). Every other run is recorded and returned, by cell.
func (cfg RunConfig) measure(cells []cell) ([][]bench.Result, error) {
	if len(cells) > 0 {
		if _, err := cfg.once(cells[0]); err != nil {
			return nil, err
		}
	}
	runs := make([][]bench.Result, len(cells))
	for range scalarReps {
		for i, c := range cells {
			r, err := cfg.once(c)
			if err != nil {
				return nil, err
			}
			if cfg.Record != nil {
				cfg.Record(r)
			}
			runs[i] = append(runs[i], r)
		}
	}
	return runs, nil
}

// once is one run of c on a fresh allocator — its subject's registry
// entry built from a copy of cfg.Options with the subject's edit applied
// and, under cfg.Telemetry, a fresh recorder — the previous run's heap
// collected outside the timed region.
func (cfg RunConfig) once(c cell) (bench.Result, error) {
	opt := cfg.Options
	if cfg.Telemetry {
		opt.LockFree.Telemetry = core.NewRecorder(telemetry.Config{})
	}
	if c.sub.edit != nil {
		c.sub.edit(&opt)
	}
	a, err := alloc.New(c.sub.name, opt)
	if err != nil {
		return bench.Result{}, err
	}
	runtime.GC()
	if c.sub.walked {
		return bench.Walked{Workload: c.w}.Run(a, c.threads), nil
	}
	return c.w.Run(a, c.threads), nil
}

// run measures every cell of s — subject × workload × thread count, and
// the reference — and prints them in s's layout.
func run(cfg RunConfig, s spec, out io.Writer) error {
	if err := s.check(); err != nil {
		return err
	}
	cfg.Telemetry = cfg.Telemetry || s.telemetry
	subs := s.selected(cfg.Allocators)
	if len(subs) == 0 {
		fmt.Fprintln(out, "(no allocator of this experiment is among the selected ones)")
		return nil
	}
	ownRef := s.ref != "" && s.ref != firstRow
	var all []cell // per workload: the reference, then subject × thread count
	for _, w := range s.workloads {
		if ownRef {
			all = append(all, cell{subject{name: s.ref}, w, 1})
		}
		for _, sub := range subs {
			for _, t := range s.threads {
				all = append(all, cell{sub, w, t})
			}
		}
	}
	results, err := cfg.measure(all)
	if err != nil {
		return err
	}
	var rows [][]string // byWorkload: one per workload, the table printed after the last
	for _, w := range s.workloads {
		var ref bench.Result
		if ownRef {
			ref, results = fastest(results[0]), results[1:]
		}
		cells := make([][][]bench.Result, len(subs)) // [subject][thread count][run]
		for i := range subs {
			cells[i], results = results[:len(s.threads)], results[len(s.threads):]
		}
		if s.ref == firstRow {
			ref = fastest(cells[0][0])
		}
		switch s.layout {
		case bySubject:
			t := Table{Title: s.titleOf(w), Columns: []string{s.head}, Notes: s.notes}
			for _, c := range s.columns {
				t.Columns = append(t.Columns, c.name)
			}
			for i, sub := range subs {
				t.Rows = append(t.Rows, s.row(sub.String(), cells[i][0], ref))
			}
			if s.extra != nil {
				for _, r := range s.extra() {
					t.Rows = append(t.Rows, s.row(r.Allocator, []bench.Result{r}, ref))
				}
			}
			fmt.Fprint(out, "\n", t.Render())
		case byWorkload:
			row, byName := []string{w.Name()}, map[string]float64{}
			for i, sub := range subs {
				v, text := s.columns[0].over(cells[i][0], ref)
				byName[sub.name] = v
				row = append(row, text)
			}
			if s.last != nil {
				row = append(row, s.last.cell(w, byName))
			}
			rows = append(rows, row)
		case overThreads:
			fig := Figure{Title: s.titleOf(w), YLabel: s.columns[0].name}
			for i, sub := range subs {
				series := Series{Name: sub.String()}
				for j, t := range s.threads {
					v, _ := s.columns[0].over(cells[i][j], ref)
					series.Points = append(series.Points, Point{Threads: t, Value: v})
				}
				fig.Series = append(fig.Series, series)
			}
			fmt.Fprint(out, "\n", fig.Render())
		}
	}
	if s.layout == byWorkload {
		t := Table{Title: s.title, Columns: []string{s.head}, Rows: rows, Notes: s.notes}
		for _, sub := range subs {
			t.Columns = append(t.Columns, sub.String())
		}
		if s.last != nil {
			t.Columns = append(t.Columns, s.last.name)
		}
		fmt.Fprint(out, "\n", t.Render())
	}
	return nil
}

// Describe prints what the experiment measures: its thread counts and
// reference, and its workloads (with their parameters at the configured
// scale), subjects and columns by name.
func (e Experiment) Describe() string {
	s := e.spec
	var b strings.Builder
	fmt.Fprintf(&b, "  threads:   %v", s.threads)
	if s.ref == firstRow {
		b.WriteString(", against the first subject")
	} else if s.ref != "" {
		fmt.Fprintf(&b, ", against %s at 1 thread", s.ref)
	}
	var workloads, subjects, columns []string
	for _, w := range s.workloads {
		workloads = append(workloads, fmt.Sprintf("%s %+v", w.Name(), w))
	}
	for _, sub := range s.subjects {
		subjects = append(subjects, sub.String())
	}
	if s.subjects == nil {
		subjects = []string{"every allocator -allocs selects"}
	}
	for _, c := range s.columns {
		columns = append(columns, c.name)
	}
	fmt.Fprintf(&b, "\n  workloads: %s\n  subjects:  %s\n  columns:   %s\n",
		strings.Join(workloads, "; "), strings.Join(subjects, ", "), strings.Join(columns, ", "))
	return b.String()
}
