package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// perLayer lists BENCHMARK.json's per_layer metrics: the ladder rungs
// (sut.go), then the per-workload counts, span statistics and
// attribution of the traced run. No bounds: they localise, they do not
// gate.
var perLayer = func() []metric {
	var ms []metric
	for _, r := range ladder() {
		ms = append(ms, metric{Name: r.name, Unit: "ns", Better: "lower"})
	}
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			ms = append(ms, metric{Name: n, Unit: unit, Better: better})
		}
	}
	add("ns", "lower", "bench.timer_overhead_ns", "larson.pair_1t_ns", "prodcons.task_1t_ns", "kvcache.req_1t_ns")
	add("ratio", "higher", "larson.scaling_eff", "kvcache.scaling_eff")
	add("1/s", "higher", "baseline.hoard_larson_ops_per_s", "baseline.ptmalloc_larson_ops_per_s",
		"baseline.serial_larson_ops_per_s", "baseline.chunkheap_larson_ops_per_s", "baseline.buddy_larson_ops_per_s")
	add("1/kop", "lower", "mem.region_allocs_per_kop", "mem.steals_per_kop", "mem.retries_per_kop",
		"pool.desc_cycles_per_kop", "pool.retries_per_kop", "pool.migrations_per_kop", "partial.retries_per_kop",
		"core.from_partial_per_kop", "core.from_newsb_per_kop", "core.newsb_race_loss_per_kop",
		"core.empty_sb_freed_per_kop", "core.large_per_kop", "core.retries_per_kop", "core.retries_active_per_kop",
		"core.retries_free_per_kop", "core.retries_partial_per_kop", "magazine.flushes_per_kop", "magazine.retries_per_kop")
	add("1/kop", "higher", "core.from_active_per_kop")
	add("ratio", "higher", "mem.region_reuse_ratio", "magazine.hit_ratio")
	add("B", "lower", "mem.reserved_bytes")
	add("count", "lower", "pool.descs_allocated")
	add("ratio", "lower", "app.remote_free_ratio", "mem.payload_share", "alloc.busy_share", "app.self_share")
	add("ns", "lower", "alloc.malloc_p50_ns", "alloc.malloc_p99_ns", "alloc.free_p50_ns", "alloc.free_p99_ns", "alloc.op_p999_ns")
	add("ns", "lower", "attrib.core_ns", "attrib.magazine_ns", "attrib.pool_ns", "attrib.partial_ns", "attrib.mem_ns")
	add("ratio", "lower", "attrib.unexplained_ratio", "trace.overhead_ratio")
	add("count", "higher", "trace.spans")
	// Too unsteady on this host to carry a bound (README "Calibration").
	add("ns", "lower", "e2e.op_p99_ns")
	return ms
}()

// countUnits is the fixed length, in units per worker, of a count
// round: fixed so that a one-thread workload's counter deltas repeat
// exactly from run to run.
var countUnits = map[string]uint64{"larson": 1 << 21, "churn": 1 << 19, "prodcons": 1 << 19, "kvcache": 1 << 19}

const (
	countRounds  = 3
	ladderSlices = 9
)

// ladderSlice is the length of one of a rung's nine timed slices.
func ladderSlice(o *options) time.Duration {
	return time.Duration(o.seconds / 1200 * float64(time.Second))
}

// timeRung returns the median over the slices of ns per pair.
func timeRung(r rung, slice time.Duration) float64 {
	per := make([]float64, 0, ladderSlices)
	for s := 0; s < ladderSlices; s++ {
		op, closeFn := r.open()
		op(r.batch) // warm up: first superblock, first chunk, first region
		pairs, t0 := 0, now()
		t := t0
		for t-t0 < int64(slice) && (r.maxPairs == 0 || pairs < r.maxPairs) {
			op(r.batch)
			pairs += r.batch
			t = now()
		}
		closeFn()
		per = append(per, float64(t-t0)/float64(pairs))
	}
	runtime.GC()
	sort.Float64s(per)
	return quartile(per, 0.5)
}

// runLadder times every rung and prints the ladder.
func runLadder(w io.Writer, slice time.Duration) map[string]float64 {
	out := map[string]float64{"bench.timer_overhead_ns": timerOverheadNS}
	fmt.Fprintf(w, "\nladder: median of %d slices of %v, one goroutine\n", ladderSlices, slice)
	fmt.Fprintf(w, "  %-28s %10.2f ns\n", "bench.timer_overhead_ns", timerOverheadNS)
	for _, r := range ladder() {
		out[r.name] = timeRung(r, slice)
		fmt.Fprintf(w, "  %-28s %10.2f ns\n", r.name, out[r.name])
	}
	return out
}

// topRungs adds the one-thread workload rates, the scaling efficiencies
// and the lock-based baselines on larson: one short round each.
func topRungs(w io.Writer, o *options, out map[string]float64) error {
	round := time.Duration(o.seconds / 30 * float64(time.Second))
	fmt.Fprintf(w, "\ntop rungs: one round of %v each\n", round)
	set := func(name, unit string, v float64) {
		out[name] = v
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, v, unit)
	}
	rate := func(name, backend string, threads int) (float64, error) {
		cfg := passConfig{wl: findWorkload(name), seed: o.seed, threads: threads, backend: backend, rounds: 1, round: round, warm: round / 10}
		p, err := runPass(&cfg)
		if err != nil {
			return 0, err
		}
		if p.failed > 0 {
			return 0, fmt.Errorf("%s on %q: %d units failed: %v", name, backend, p.failed, p.rounds[0].errs)
		}
		return p.opsPerS(), nil
	}
	nproc := runtime.NumCPU()
	for _, r := range []struct{ wl, metric string }{{"larson", "larson.pair_1t_ns"}, {"prodcons", "prodcons.task_1t_ns"}, {"kvcache", "kvcache.req_1t_ns"}} {
		one, err := rate(r.wl, "", 1)
		if err != nil {
			return err
		}
		set(r.metric, "ns", 1e9/one)
		if r.wl == "prodcons" {
			continue
		}
		threads := findWorkload(r.wl).threads(nproc)
		all, err := rate(r.wl, "", threads)
		if err != nil {
			return err
		}
		set(r.wl+".scaling_eff", "ratio", all/(float64(threads)*one))
	}
	for _, b := range []string{"hoard", "ptmalloc", "serial", "chunkheap", "buddy"} {
		v, err := rate("larson", b, allProcs(nproc))
		if err != nil {
			return err
		}
		set("baseline."+b+"_larson_ops_per_s", "1/s", v)
	}
	return nil
}

// countMetrics turns one count round's counter deltas into per-kop
// counts and ratios.
func countMetrics(r *roundResult) map[string]float64 {
	c := &r.delta
	kop := float64(r.units) / 1000
	per := func(n float64) float64 { return n / kop }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	active, free, partial := c.retries(sitesActive...), c.retries(sitesFree...), c.retries(sitesPartial...)
	return map[string]float64{
		"mem.region_allocs_per_kop":    per(float64(c.regionAllocs)),
		"mem.region_reuse_ratio":       ratio(float64(c.reusedRegions), float64(c.regionAllocs)),
		"mem.steals_per_kop":           per(float64(c.steals)),
		"mem.retries_per_kop":          per(c.retries(sitesMem...)),
		"mem.reserved_bytes":           float64(c.reservedWords * wordBytes),
		"pool.desc_cycles_per_kop":     per(float64(c.ops.FromNewSB + c.ops.NewSBRaceLoss)),
		"pool.retries_per_kop":         per(c.retries(sitesPool...)),
		"pool.migrations_per_kop":      per(c.retries(sitesMigrate...)),
		"pool.descs_allocated":         float64(c.descs),
		"partial.retries_per_kop":      per(c.retries(sitesList...)),
		"core.from_active_per_kop":     per(float64(c.ops.FromActive)),
		"core.from_partial_per_kop":    per(float64(c.ops.FromPartial)),
		"core.from_newsb_per_kop":      per(float64(c.ops.FromNewSB)),
		"core.newsb_race_loss_per_kop": per(float64(c.ops.NewSBRaceLoss)),
		"core.empty_sb_freed_per_kop":  per(float64(c.ops.EmptySBFreed)),
		"core.large_per_kop":           per(float64(c.ops.LargeMallocs)),
		"core.retries_per_kop":         per(active + free + partial),
		"core.retries_active_per_kop":  per(active),
		"core.retries_free_per_kop":    per(free),
		"core.retries_partial_per_kop": per(partial),
		"magazine.hit_ratio":           ratio(float64(c.ops.MagazineHits), float64(c.ops.MagazineHits+c.ops.MagazineMisses)),
		"magazine.flushes_per_kop":     per(float64(c.ops.MagazineFlushes)),
		"magazine.retries_per_kop":     per(c.retries(sitesMagazine...)),
		"app.remote_free_ratio":        ratio(float64(r.remote), float64(r.frees)),
		// carried to the attribution, not reported:
		"mag_hits_per_unit":      float64(c.ops.MagazineHits) / float64(r.units),
		"payload_words_per_unit": float64(r.payload) / float64(r.units),
	}
}

// traced is what a traced run of one workload reports.
type traced struct {
	attempted, failed uint64
	values            []namedValue
}

// tracedRun produces every per-layer metric for one workload: counter
// deltas from count rounds with the recorder attached, span statistics
// from a pass that records spans around every sampled unit, the same
// pass without spans for the tracing overhead, and the attribution of
// the measured allocator time to the layers. global holds the ladder
// and top rungs, which do not depend on the workload.
func tracedRun(w io.Writer, wl *workload, o *options, global map[string]float64) (traced, error) {
	var tr traced
	out := map[string]float64{}
	for k, v := range global {
		out[k] = v
	}
	threads := wl.threads(runtime.NumCPU())
	note := func(p *passResult) {
		tr.attempted += p.attempted
		tr.failed += p.failed
	}

	count := passConfig{wl: wl, seed: o.seed, threads: threads, rounds: countRounds, units: countUnits[wl.name], telemetry: true}
	cp, err := runPass(&count)
	if err != nil {
		return tr, err
	}
	note(&cp)
	for i := range cp.rounds {
		for k, v := range countMetrics(&cp.rounds[i]) {
			out[k] += v / countRounds
		}
	}

	round := time.Duration(o.seconds / 15 * float64(time.Second))
	plain := passConfig{wl: wl, seed: o.seed, threads: threads, rounds: 2, round: round, warm: round / 10}
	spans := plain
	spans.spans = true
	sp, err := runPass(&spans)
	if err != nil {
		return tr, err
	}
	note(&sp)
	pp, err := runPass(&plain)
	if err != nil {
		return tr, err
	}
	note(&pp)
	var logs []*spanLog
	for _, r := range sp.rounds {
		logs = append(logs, r.logs...)
	}
	st := analyse(logs, timerOverheadNS)
	path, err := writeTrace(o.outDir, wl.name, o.seed, timerOverheadNS, sp.rounds[len(sp.rounds)-1].logs)
	if err != nil {
		return tr, fmt.Errorf("write trace: %w", err)
	}
	out["trace.spans"] = float64(st.spans)
	out["e2e.op_p99_ns"] = quartile(pp.stats().q99, 0.5)
	out["trace.overhead_ratio"] = 1 - sp.opsPerS()/pp.opsPerS()
	out["alloc.malloc_p50_ns"] = st.malloc.quantile(0.50)
	out["alloc.malloc_p99_ns"] = st.malloc.quantile(0.99)
	out["alloc.free_p50_ns"] = st.free.quantile(0.50)
	out["alloc.free_p99_ns"] = st.free.quantile(0.99)
	out["alloc.op_p999_ns"] = st.ops.quantile(0.999)
	if st.reqNS > 0 {
		out["alloc.busy_share"] = st.allocNS / st.reqNS
		out["mem.payload_share"] = st.memNS / st.reqNS
		out["app.self_share"] = st.selfNS / st.reqNS
	}

	// Attribution: ladder cost × measured count per unit, against the
	// time the spans saw inside the allocator and its payload words.
	perUnit := func(kop string) float64 { return out[kop] / 1000 }
	coreOps := perUnit("core.from_active_per_kop") + perUnit("core.from_partial_per_kop") + perUnit("core.from_newsb_per_kop")
	out["attrib.core_ns"] = coreOps * out["core.pair_ns"]
	out["attrib.magazine_ns"] = out["mag_hits_per_unit"] * out["magazine.pair_ns"]
	out["attrib.pool_ns"] = perUnit("pool.desc_cycles_per_kop") * out["pool.freelist_pair_ns"]
	out["attrib.partial_ns"] = perUnit("core.from_partial_per_kop") * out["partial.fifo_pair_ns"]
	out["attrib.mem_ns"] = perUnit("mem.region_allocs_per_kop")*out["mem.region_pair_ns"] + out["payload_words_per_unit"]*out["mem.load_ns"]
	explained := out["attrib.core_ns"] + out["attrib.magazine_ns"] + out["attrib.pool_ns"] + out["attrib.partial_ns"] + out["attrib.mem_ns"]
	if measured := st.allocNS + st.memNS; measured > 0 {
		out["attrib.unexplained_ratio"] = 1 - explained/measured
	}

	fmt.Fprintf(w, "\n%s traced: threads=%d, %d count rounds of %d units/worker, 2 span rounds and 2 plain rounds of %v\n",
		wl.name, threads, countRounds, count.units, round)
	fmt.Fprintf(w, "  spans: %d recorded over %d sampled units, last round written to %s\n", st.spans, st.reqs, path)
	fmt.Fprintf(w, "  per sampled unit: req %.1f ns = alloc %.1f + mem.payload %.1f + self %.1f (+ timer)\n", st.reqNS, st.allocNS, st.memNS, st.selfNS)
	for _, m := range perLayer {
		v := out[m.Name]
		tr.values = append(tr.values, namedValue{m.Name, v, m.Unit})
		if _, isGlobal := global[m.Name]; !isGlobal {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	for _, p := range []*passResult{&cp, &sp, &pp} {
		for i, r := range p.rounds {
			for _, e := range r.errs {
				fmt.Fprintf(w, "  round %d: %s\n", i, e)
			}
		}
	}
	return tr, nil
}
