package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

var epoch = time.Now()

// now is the benchmark's clock: monotonic nanoseconds since start.
func now() int64 { return int64(time.Since(epoch)) }

// sampleEvery is the sampling stride: one unit in 64 is timed on its own
// (and, in a traced pass, recorded as spans); the clock is read nowhere
// else in a worker loop.
const sampleEvery = 64

type faultKind int

const (
	faultNone   faultKind = iota
	faultCanary           // stamp one block with a wrong canary
	faultLeak             // drop one block without freeing it
)

func parseFault(s string) (faultKind, error) {
	switch s {
	case "":
		return faultNone, nil
	case "canary":
		return faultCanary, nil
	case "leak":
		return faultLeak, nil
	}
	return 0, fmt.Errorf("unknown -fault %q (want canary or leak)", s)
}

// passConfig describes one pass: some rounds of one workload, each on a
// fresh allocator.
type passConfig struct {
	wl      *workload
	seed    int64
	threads int
	backend string
	rounds  int
	// A round is bounded by time (round, of which warm is discarded) or,
	// when units > 0, by a fixed number of units per worker so that
	// counter deltas repeat exactly.
	round, warm time.Duration
	units       uint64
	telemetry   bool // attach the recorder and report counter deltas
	spans       bool // record spans around every sampled unit
	fault       faultKind
}

// env is what the workers of one round share.
type env struct {
	cfg     *passConfig
	seed    uint64
	ready   sync.WaitGroup
	start   chan struct{}
	warmEnd int64 // set before start is closed
	end     int64
	// tracePace is the time between two traced units of one worker.
	tracePace int64
	live      []liveBytes // requested bytes, published per worker

	errMu       sync.Mutex
	errs        []string // first few violations, for the report
	roundFailed bool     // an end-of-round check failed
}

// roundFail records a violation that cannot be pinned on one unit: every
// unit of the round then counts as failed.
func (e *env) roundFail(format string, args ...any) {
	e.errMu.Lock()
	e.roundFailed = true
	e.errs = append(e.errs, fmt.Sprintf(format, args...))
	e.errMu.Unlock()
}

// liveBytes is one worker's published balance of requested bytes
// (malloc'd minus freed by it; negative for a worker that mostly frees
// what others allocated), padded to its own cache line.
type liveBytes struct {
	net atomic.Int64
	_   [7]uint64
}

const (
	phaseWarm = iota
	phaseTimed
	phaseDone
)

// worker is one closed-loop client: a thread handle plus its meter.
// The calls into the allocator are in sut.go.
type worker struct {
	id   int
	env  *env
	th   thread
	heap simHeap
	seed uint64

	// meter
	phase       int
	units       uint64 // units completed since begin
	startUnits  uint64
	endUnits    uint64
	startT      int64
	endT        int64
	hist        hist
	sampleT0    int64
	sampleCarry int64 // time already spent on the unit before a resume
	sampleSpan  int32
	nextTrace   int64 // earliest time of the next traced unit

	// requested-bytes accounting (space_blowup's denominator)
	reqAlloc, reqFreed uint64
	peakReq            uint64

	failedUnits uint64
	frees       uint64 // blocks freed by this worker
	remoteFrees uint64 // of which allocated by another worker
	payload     uint64 // payload words read or written through Heap.Load/Store

	fault   faultKind
	faultAt uint64

	log *spanLog // non-nil in a traced pass
	tr  *spanLog // == log while inside a sampled unit, else nil
}

func (w *worker) fail(format string, args ...any) {
	w.failedUnits++
	w.env.errMu.Lock()
	if len(w.env.errs) < 8 {
		w.env.errs = append(w.env.errs, fmt.Sprintf("worker %d: ", w.id)+fmt.Sprintf(format, args...))
	}
	w.env.errMu.Unlock()
}

// begin ends the worker's set-up: it waits until every worker is ready
// and the round's clock has started.
func (w *worker) begin() {
	w.env.ready.Done()
	<-w.env.start
	w.startT = now()
	if w.env.cfg.units > 0 {
		w.phase = phaseTimed
	}
}

// samplePart is the first part of a sampled unit that finishes later,
// possibly on another worker: its request id and the time spent so far.
type samplePart struct {
	req uint32
	ns  int32
}

// sampleBegin and sampleEnd bracket the one unit in sampleEvery that is
// timed individually. A unit made of two separate stretches of work
// (churn's malloc and later free, prodcons' producer and consumer half)
// is paused after the first and resumed for the second.
func (w *worker) sampleBegin() {
	w.sampleCarry = 0
	w.sampleT0 = now()
	if w.log != nil && w.sampleT0 >= w.nextTrace {
		// Traced units are paced over the round so that the capped log
		// covers all of it, not its first milliseconds.
		w.nextTrace = w.sampleT0 + w.env.tracePace
		w.tr = w.log
		w.sampleSpan = w.log.beginReq(w.log.nextReq())
		w.sampleT0 = now()
	}
}

func (w *worker) samplePause() samplePart {
	t := now()
	part := samplePart{ns: int32(t - w.sampleT0)}
	if w.tr != nil {
		part.req = w.tr.pauseAt(w.sampleSpan, w.sampleT0, t)
		w.tr = nil
	}
	return part
}

func (w *worker) sampleResume(part samplePart) {
	if w.log != nil && part.req != 0 {
		w.tr = w.log
		w.sampleSpan = w.log.beginReq(part.req)
	}
	// The unit is charged one timer overhead when its quantiles are
	// read; the first part's own overhead is taken off here.
	w.sampleCarry = int64(part.ns) - int64(timerOverheadNS)
	w.sampleT0 = now()
}

func (w *worker) sampleEnd() int64 {
	t := now()
	if w.tr != nil {
		w.tr.endAt(w.sampleSpan, w.sampleT0, t)
		w.tr = nil
	}
	w.observe(t - w.sampleT0 + w.sampleCarry)
	return t
}

func (w *worker) observe(d int64) {
	if w.phase == phaseTimed {
		w.hist.add(d)
	}
}

// tick advances the meter by n units at time t and reports whether the
// worker's window has closed.
func (w *worker) tick(n uint64, t int64) bool {
	w.units += n
	w.notePeak()
	switch w.phase {
	case phaseWarm:
		if t >= w.env.warmEnd {
			w.phase, w.startUnits, w.startT = phaseTimed, w.units, t
			w.hist.reset()
		}
	case phaseTimed:
		if b := w.env.cfg.units; (b > 0 && w.units >= b) || (b == 0 && t >= w.env.end) {
			w.finish(t)
		}
	}
	return w.phase == phaseDone
}

// finish closes the window at t (a consumer calls it when the producer
// has stopped and the ring is empty).
func (w *worker) finish(t int64) {
	switch w.phase {
	case phaseTimed:
		w.endUnits, w.endT = w.units, t
	case phaseWarm:
		w.startUnits, w.endUnits, w.startT, w.endT = w.units, w.units, t, t
	}
	w.phase = phaseDone
}

// publishLive makes this worker's requested-bytes balance visible to
// the others. One word per worker, so a reader never pairs a new malloc
// count with an old free count.
func (w *worker) publishLive() {
	w.env.live[w.id].net.Store(int64(w.reqAlloc - w.reqFreed))
}

// notePeak samples the requested bytes live over all workers; their
// maximum is space_blowup's denominator.
func (w *worker) notePeak() {
	w.publishLive()
	var live int64
	for i := range w.env.live {
		live += w.env.live[i].net.Load()
	}
	if live > 0 {
		w.peakReq = max(w.peakReq, uint64(live))
	}
}

// roundResult is what one round measured.
type roundResult struct {
	units         uint64
	seconds       float64 // mean worker window
	rate          float64 // sum over workers of units ÷ own window
	setupS        float64
	peakHeap      uint64
	peakReq       uint64
	attempted     uint64
	failed        uint64
	errs          []string
	hist          hist
	q50, q90, q99 float64 // quantiles of the round's own samples, timer overhead removed
	frees         uint64
	remote        uint64
	payload       uint64
	delta         counters // when cfg.telemetry
	logs          []*spanLog
}

// quantileNS is a quantile of the round's samples with the timer
// overhead removed.
func (r *roundResult) quantileNS(q float64) float64 {
	return max(r.hist.quantile(q)-timerOverheadNS, 0)
}

// runRound runs one round on a fresh allocator.
func runRound(cfg *passConfig, round int) (roundResult, error) {
	var res roundResult
	t0 := now()
	seed := cfg.seed + int64(round)
	s, err := newSUT(sutConfig{backend: cfg.backend, threads: cfg.threads, magazine: cfg.wl.magazine, telemetry: cfg.telemetry})
	if err != nil {
		return res, err
	}
	if cfg.telemetry && s.core == nil {
		return res, fmt.Errorf("counter deltas need the lockfree backend, not %q", cfg.backend)
	}
	e := &env{cfg: cfg, seed: uint64(seed), start: make(chan struct{}), live: make([]liveBytes, cfg.threads+1)}
	inst := cfg.wl.build(seed, cfg.threads)
	newWorker := func(id int) *worker {
		return &worker{id: id, env: e, th: s.a.NewThread(), heap: s.heap, seed: e.seed}
	}
	ws := make([]*worker, cfg.threads)
	for i := range ws {
		ws[i] = newWorker(i)
		if cfg.spans {
			ws[i].log = newSpanLog(i)
		}
	}
	// The set-up handle is registered last so the workers keep thread
	// ids 0..threads-1 and with them one processor heap each.
	setup := newWorker(cfg.threads)
	// A fault goes to the last worker: in every workload it both
	// allocates and frees.
	ws[cfg.threads-1].fault, ws[cfg.threads-1].faultAt = cfg.fault, 2*sampleEvery
	inst.seed(setup)
	setup.notePeak()

	var base counters
	e.ready.Add(cfg.threads)
	var done sync.WaitGroup
	for _, w := range ws {
		done.Add(1)
		go func(w *worker) {
			defer done.Done()
			inst.run(w)
		}(w)
	}
	e.ready.Wait()
	if cfg.telemetry {
		base = s.counters()
	}
	tStart := now()
	e.warmEnd, e.end = tStart+int64(cfg.warm), tStart+int64(cfg.round)
	e.tracePace = int64(cfg.round) / tracedUnits
	close(e.start)
	done.Wait()
	tDone := now()

	if cfg.telemetry {
		res.delta = s.counters().sub(base)
	}
	inst.drain(setup)
	for _, w := range ws {
		unregister(w.th)
	}
	unregister(setup.th)
	if err := s.verify(); err != nil {
		e.roundFail("%v", err)
	}
	res.peakHeap = s.peakHeapBytes()
	var window int64
	var metered int
	for _, w := range ws {
		if d := w.endT - w.startT; d > 0 && w.endUnits > w.startUnits {
			n := w.endUnits - w.startUnits
			res.units += n
			res.rate += float64(n) / (float64(d) / 1e9)
			window += d
			metered++
		}
		res.attempted += w.units
		res.failed += w.failedUnits
		res.frees += w.frees
		res.remote += w.remoteFrees
		res.payload += w.payload
		res.hist.merge(&w.hist)
		res.peakReq = max(res.peakReq, w.peakReq)
		if w.log != nil {
			res.logs = append(res.logs, w.log)
		}
	}
	res.failed += setup.failedUnits
	res.q50, res.q90, res.q99 = res.quantileNS(0.50), res.quantileNS(0.90), res.quantileNS(0.99)
	if metered > 0 {
		res.seconds = float64(window) / 1e9 / float64(metered)
	}
	res.errs = e.errs
	if e.roundFailed {
		res.failed = max(res.attempted, 1)
	}
	res.failed = min(res.failed, max(res.attempted, 1))
	// Drop the round's heap before the next round builds its own.
	runtime.GC()
	res.setupS = float64((tStart-t0)+(now()-tDone)) / 1e9
	return res, nil
}
