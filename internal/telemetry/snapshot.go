package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// HistSummary is a merged histogram with derived quantiles.
type HistSummary struct {
	Count   uint64      `json:"count"`
	P50NS   uint64      `json:"p50ns"`
	P90NS   uint64      `json:"p90ns"`
	P99NS   uint64      `json:"p99ns"`
	MaxNS   uint64      `json:"maxns"`
	Buckets HistBuckets `json:"buckets"`
}

func summarize(b HistBuckets) HistSummary {
	return HistSummary{
		Count:   b.Count(),
		P50NS:   b.Quantile(0.50),
		P90NS:   b.Quantile(0.90),
		P99NS:   b.Quantile(0.99),
		MaxNS:   b.Max(),
		Buckets: b,
	}
}

// OpHist is one (op, size class) row: the exact operation count, and
// the histogram of the timed ones.
type OpHist struct {
	Op    string `json:"op"`    // "malloc" or "free"
	Class int    `json:"class"` // size-class index, -1 for large blocks
	Ops   uint64 `json:"ops"`
	HistSummary
}

// Snapshot is a point-in-time merge of all telemetry state. It is a
// consistent-enough racy snapshot: every counter is loaded atomically
// and monotone, but counters read at slightly different instants (the
// same semantics as Allocator.Stats).
type Snapshot struct {
	// TakenUnixNano is when the snapshot was taken.
	TakenUnixNano int64 `json:"takenUnixNano"`
	// UptimeNS is the time since the Recorder was created.
	UptimeNS int64 `json:"uptimeNS"`
	// Threads is the number of registered thread shards.
	Threads int `json:"threads"`

	// Retries maps site name to total failed-CAS count (thread shards
	// plus stripes).
	Retries map[string]uint64 `json:"retries"`
	// TotalRetries is the sum over all sites.
	TotalRetries uint64 `json:"totalRetries"`

	// Mallocs and Frees count every operation, exactly.
	Mallocs uint64 `json:"mallocs"`
	Frees   uint64 `json:"frees"`
	// Malloc and Free aggregate latency over all size classes
	// (including large blocks), from the timed operations: one in
	// Interval of each thread's, so their Count is about Mallocs/Interval.
	Malloc HistSummary `json:"malloc"`
	Free   HistSummary `json:"free"`
	// PerClass holds every (op, class) row, including empty ones so
	// two snapshots from the same recorder subtract positionally.
	PerClass []OpHist `json:"perClass"`

	// Events are the most recent flight-recorder events, oldest
	// first.
	Events []Event `json:"events,omitempty"`
	// EventsRecorded is the total number of events ever recorded
	// (Events holds at most the ring capacity).
	EventsRecorded uint64 `json:"eventsRecorded"`
}

// Snapshot merges all shards, stripes, and the flight recorder.
func (r *Recorder) Snapshot() Snapshot {
	shards := *r.shards.Load()
	now := time.Now()
	s := Snapshot{
		TakenUnixNano: now.UnixNano(),
		UptimeNS:      now.Sub(r.started).Nanoseconds(),
		Threads:       len(shards),
		Retries:       make(map[string]uint64, NumSites),
	}

	var siteTotals [NumSites]uint64
	for _, sh := range shards {
		for i := range sh.retries {
			siteTotals[i] += sh.retries[i].Load()
		}
	}
	for i := range r.stripes.stripes {
		st := &r.stripes.stripes[i]
		for j := range st.counts {
			siteTotals[j] += st.counts[j].Load()
		}
	}
	for i, n := range siteTotals {
		s.Retries[Site(i).String()] = n
		s.TotalRetries += n
	}

	cols := r.cfg.Classes + 1
	rows := 2 * cols
	merged := make([]HistBuckets, rows)
	ops := make([]uint64, rows)
	for _, sh := range shards {
		for i := range sh.counts { // row 0, large blocks, is column Classes
			if p, col := Path(i%pathStride), (i/pathStride+r.cfg.Classes)%cols; p < NumPaths {
				ops[int(p.Op())*cols+col] += atomic.LoadUint64(&sh.counts[i])
			}
		}
		if h := sh.hist.Load(); h != nil {
			for i := range *h {
				merged[i].Add((*h)[i].Load())
			}
		}
	}
	s.PerClass = make([]OpHist, rows)
	var mallocAll, freeAll HistBuckets
	for i := range merged {
		op, class := rowOpClass(i, r.cfg.Classes)
		s.PerClass[i] = OpHist{Op: op, Class: class, Ops: ops[i], HistSummary: summarize(merged[i])}
		if op == "malloc" {
			s.Mallocs += ops[i]
			mallocAll.Add(merged[i])
		} else {
			s.Frees += ops[i]
			freeAll.Add(merged[i])
		}
	}
	s.Malloc = summarize(mallocAll)
	s.Free = summarize(freeAll)

	s.Events = r.ring.Events(0)
	s.EventsRecorded = r.ring.Recorded()
	return s
}

func rowOpClass(row, classes int) (string, int) {
	op := "malloc"
	if row >= classes+1 {
		op = "free"
		row -= classes + 1
	}
	class := row
	if class == classes {
		class = -1 // large
	}
	return op, class
}

// Sub returns the delta snapshot s minus an earlier baseline from the
// same Recorder: retry and operation counts and histogram buckets are
// subtracted (each clamped at zero) and quantiles recomputed, so a
// benchmark can report only its own interval. Events and EventsRecorded
// are taken from s unchanged.
func (s Snapshot) Sub(base Snapshot) Snapshot {
	out := s
	out.Mallocs = sub(s.Mallocs, base.Mallocs)
	out.Frees = sub(s.Frees, base.Frees)
	out.Retries = make(map[string]uint64, len(s.Retries))
	out.TotalRetries = 0
	for k, v := range s.Retries {
		d := sub(v, base.Retries[k])
		out.Retries[k] = d
		out.TotalRetries += d
	}
	subSummary := func(a, b HistSummary) HistSummary {
		bk := a.Buckets
		bk.Sub(b.Buckets)
		return summarize(bk)
	}
	out.Malloc = subSummary(s.Malloc, base.Malloc)
	out.Free = subSummary(s.Free, base.Free)
	out.PerClass = make([]OpHist, len(s.PerClass))
	for i := range s.PerClass {
		out.PerClass[i] = s.PerClass[i]
		if i < len(base.PerClass) {
			out.PerClass[i].Ops = sub(s.PerClass[i].Ops, base.PerClass[i].Ops)
			out.PerClass[i].HistSummary = subSummary(s.PerClass[i].HistSummary, base.PerClass[i].HistSummary)
		}
	}
	return out
}

// sub is a - b, clamped at zero so a racy baseline cannot wrap.
func sub(a, b uint64) uint64 {
	if b > a {
		return 0
	}
	return a - b
}

// Ops returns the total operations (mallocs + frees) observed.
func (s Snapshot) Ops() uint64 { return s.Mallocs + s.Frees }

// RetriesPerOp returns TotalRetries normalized by operations.
func (s Snapshot) RetriesPerOp() float64 {
	ops := s.Ops()
	if ops == 0 {
		return 0
	}
	return float64(s.TotalRetries) / float64(ops)
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Text renders a human-readable dashboard: retry counters (non-zero
// sites, descending), latency summaries, the busiest per-class rows,
// and the tail of the flight recorder.
func (s Snapshot) Text(maxEvents int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "telemetry: uptime %v, %d threads, %d ops (%d malloc / %d free)\n",
		time.Duration(s.UptimeNS).Round(time.Millisecond),
		s.Threads, s.Ops(), s.Mallocs, s.Frees)
	fmt.Fprintf(&b, "contention: %d CAS retries total (%.4f retries/op)\n",
		s.TotalRetries, s.RetriesPerOp())

	type kv struct {
		name string
		n    uint64
	}
	var sites []kv
	for name, n := range s.Retries {
		if n > 0 {
			sites = append(sites, kv{name, n})
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].n != sites[j].n {
			return sites[i].n > sites[j].n
		}
		return sites[i].name < sites[j].name
	})
	for _, site := range sites {
		fmt.Fprintf(&b, "  %-22s %d\n", site.name, site.n)
	}

	fmtLat := func(name string, h HistSummary) {
		fmt.Fprintf(&b, "%-8s timed=%-10d p50=%-8s p90=%-8s p99=%-8s max=%s\n",
			name, h.Count, ns(h.P50NS), ns(h.P90NS), ns(h.P99NS), ns(h.MaxNS))
	}
	fmtLat("malloc", s.Malloc)
	fmtLat("free", s.Free)

	// Busiest classes, by op count.
	rows := append([]OpHist(nil), s.PerClass...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Ops > rows[j].Ops })
	shown := 0
	for _, row := range rows {
		if row.Ops == 0 || shown >= 8 {
			break
		}
		cls := fmt.Sprintf("class %d", row.Class)
		if row.Class < 0 {
			cls = "large"
		}
		fmt.Fprintf(&b, "  %-6s %-9s n=%-10d p50=%-8s p99=%s\n",
			row.Op, cls, row.Ops, ns(row.P50NS), ns(row.P99NS))
		shown++
	}

	if maxEvents != 0 && len(s.Events) > 0 {
		ev := s.Events
		if maxEvents > 0 && len(ev) > maxEvents {
			ev = ev[len(ev)-maxEvents:]
		}
		fmt.Fprintf(&b, "flight recorder: %d events recorded, last %d:\n",
			s.EventsRecorded, len(ev))
		for _, e := range ev {
			fmt.Fprintf(&b, "  #%-8d t%-4d %-9s class=%-3d retries=%-4d ptr=%#x",
				e.Seq, e.Thread, e.Kind, e.Class, e.Retries, e.Ptr)
			if e.Nanos > 0 {
				fmt.Fprintf(&b, " %s", ns(e.Nanos))
			}
			if e.Hook >= 0 {
				fmt.Fprintf(&b, " hook=%d", e.Hook)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func ns(n uint64) string {
	return time.Duration(n).String()
}
