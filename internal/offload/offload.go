// Package offload implements an allocation-core architecture on top of
// the Michael (PLDI 2004) core allocator, as a self-contained library
// over *core.Allocator (no configuration selects it — see DESIGN.md,
// "Allocation-core offload", for why it is un-wired): instead of every
// worker thread running the full malloc/free paths against the shared
// heap structures, workers submit batched requests to a small set of
// dedicated allocator goroutines ("allocation cores") over the
// lock-free MS queue (internal/lfqueue), overlapping allocation work
// with compute. This is the architecture explored by the
// allocation-offload line of work (SpeedMalloc et al.): the shared-heap
// CAS traffic concentrates on K cores whose caches stay hot, while
// workers touch only their private stash on the common path.
//
// Shape:
//
//   - Each Worker keeps a per-size-class stash of pre-allocated blocks
//     and a buffer of deferred frees. Malloc pops the stash; Free
//     appends to the buffer. Neither touches shared allocator state.
//   - When a stash runs low the worker enqueues a refill request
//     (count = Batch) and keeps going; the completed batch arrives
//     through a single-slot mailbox (atomic.Pointer) the worker polls
//     at its next operation. At most one refill per worker is
//     outstanding, so the mailbox is never overwritten.
//   - When the free buffer reaches Batch the worker enqueues it as one
//     request and starts a fresh buffer.
//   - Allocation cores dequeue requests and execute them with their
//     own core.Thread handles, whose OpStats the work lands on; a
//     worker's own handle counts only its synchronous fallbacks.
//
// Degradation, never deadlock: every wait in the worker is bounded.
// If the queue is over its depth bound, the engine is stopping, or a
// refill does not arrive within the spin budget, the worker falls back
// to a synchronous Malloc/Free on its own thread handle — slower, but
// it cannot strand. Unregister is the one unbounded wait (a pending
// refill's blocks must not leak), and it is guaranteed to resolve:
// the request is completed by a live core, by the undertaker of a
// killed core, by the engine's final drain, or — if the core fleet is
// already gone — by the worker draining the queue itself.
//
// Kill tolerance: allocation cores may be killed at any hook point
// (fault injection through SetCoreHook). A killed core's in-flight
// request is adopted by its undertaker: a refill is finished with the
// blocks already allocated (the waiter falls back for the rest), a
// free batch is re-enqueued minus the single block whose Free was in
// flight (leaked — exactly the paper's kill semantics, §1), and a
// replacement core is spawned unless the engine is stopping. No batch
// is ever stranded.
package offload

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lfqueue"
	"repro/internal/mem"
	"repro/internal/sizeclass"
)

// DefaultBatch is the refill/free batch size New uses, and NewWith
// when given a non-positive batch.
const DefaultBatch = 32

// defaultBoundPerCore sets the queue depth (in requests, i.e. batches)
// beyond which workers stop submitting and fall back synchronously.
const defaultBoundPerCore = 32

// awaitSpins bounds the yield-loop a worker spends waiting for a
// refill it needs right now before giving up and falling back.
const awaitSpins = 4096

// ErrCoreKilled marks a refill whose allocator core was killed
// mid-batch; the blocks allocated before the kill are still delivered.
var ErrCoreKilled = errors.New("offload: allocator core killed mid-refill")

type reqKind uint8

const (
	reqRefill reqKind = iota
	reqFree
)

const (
	reqPending uint32 = iota
	reqDone
)

// request is one unit of queued work. ptrs/err/next are written by
// exactly one goroutine at a time (submitter before Enqueue, executor
// after Dequeue, waiter after observing the mailbox); the state and
// mailbox stores publish them.
type request struct {
	kind  reqKind
	w     *Worker
	class int
	count int       // refill: blocks requested
	next  int       // free: first unprocessed index (undertaker resume point)
	ptrs  []mem.Ptr // free: blocks to free; refill: blocks allocated
	err   error
	state atomic.Uint32
}

// finish publishes completion: (for refills) the waiter's mailbox
// first, then the state. Either store publishes ptrs; the order is for
// Worker.Unregister, which waits on the state and then empties the
// mailbox — with the state stored first it could find the mailbox
// still empty, return, and leak the whole batch delivered afterwards.
func (r *request) finish() {
	if r.kind == reqRefill {
		r.w.mail.Store(r)
	}
	r.state.Store(reqDone)
}

// Engine owns the request queue and the allocation-core goroutines for
// one core.Allocator. Cores are spawned lazily on the first Worker and
// quiesce automatically when the last Worker unregisters, so an idle
// engine holds no goroutines.
type Engine struct {
	a     *core.Allocator
	cores int
	batch int
	low   int // stash watermark triggering a prefetch refill

	q     *lfqueue.Queue[*request]
	bound atomic.Int64

	running  atomic.Bool
	stopping atomic.Bool
	live     atomic.Int32

	mu      sync.Mutex
	workers int
	coreWG  sync.WaitGroup
	hook    func(core.HookPoint)

	submits       atomic.Uint64
	refillBatches atomic.Uint64
	refillBlocks  atomic.Uint64
	refillErrors  atomic.Uint64
	freeBatches   atomic.Uint64
	freedBlocks   atomic.Uint64
	stashHits     atomic.Uint64
	stashMisses   atomic.Uint64
	fallbacks     atomic.Uint64
	coreKills     atomic.Uint64
	adopted       atomic.Uint64
}

// Stats is a point-in-time snapshot of the engine counters.
type Stats struct {
	Submits       uint64 // requests enqueued (refills + free batches)
	RefillBatches uint64 // refill requests executed
	RefillBlocks  uint64 // blocks delivered by refills
	RefillErrors  uint64 // refills cut short (OOM or core kill)
	FreeBatches   uint64 // free batches executed
	FreedBlocks   uint64 // blocks freed by batches
	StashHits     uint64 // worker mallocs served from the stash
	StashMisses   uint64 // worker mallocs that found an empty stash
	Fallbacks     uint64 // synchronous fallbacks (backpressure/timeout)
	CoreKills     uint64 // allocation cores killed by a hook panic
	AdoptedBlocks uint64 // free-batch blocks re-enqueued by undertakers
	QueueDepth    int    // current queue length, in requests
	LiveCores     int    // allocation cores currently running
	Workers       int    // registered workers
}

// New builds an engine for a with one allocation core and
// DefaultBatch.
func New(a *core.Allocator) *Engine { return NewWith(a, 1, DefaultBatch) }

// NewWith builds an engine with explicit knobs; a non-positive core
// count selects 1 and a non-positive batch DefaultBatch.
func NewWith(a *core.Allocator, cores, batch int) *Engine {
	if cores < 1 {
		cores = 1
	}
	if batch <= 0 {
		batch = DefaultBatch
	}
	low := batch / 4
	if low < 1 {
		low = 1
	}
	e := &Engine{
		a:     a,
		cores: cores,
		batch: batch,
		low:   low,
		q:     lfqueue.New[*request](),
	}
	e.bound.Store(int64(defaultBoundPerCore * cores))
	return e
}

// Allocator returns the underlying core allocator.
func (e *Engine) Allocator() *core.Allocator { return e.a }

// SetQueueBound overrides the queue-depth backpressure bound (in
// requests). Tests use a tiny bound to force the fallback path.
func (e *Engine) SetQueueBound(n int) { e.bound.Store(int64(n)) }

// SetCoreHook installs a core.Thread hook on every allocation core
// spawned afterwards (including undertaker respawns). A hook that
// panics kills the core at that point; the engine adopts its in-flight
// work and respawns. Install before the first Worker to cover the
// initial fleet.
func (e *Engine) SetCoreHook(f func(core.HookPoint)) {
	e.mu.Lock()
	e.hook = f
	e.mu.Unlock()
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	workers := e.workers
	e.mu.Unlock()
	return Stats{
		Submits:       e.submits.Load(),
		RefillBatches: e.refillBatches.Load(),
		RefillBlocks:  e.refillBlocks.Load(),
		RefillErrors:  e.refillErrors.Load(),
		FreeBatches:   e.freeBatches.Load(),
		FreedBlocks:   e.freedBlocks.Load(),
		StashHits:     e.stashHits.Load(),
		StashMisses:   e.stashMisses.Load(),
		Fallbacks:     e.fallbacks.Load(),
		CoreKills:     e.coreKills.Load(),
		AdoptedBlocks: e.adopted.Load(),
		QueueDepth:    e.q.Len(),
		LiveCores:     int(e.live.Load()),
		Workers:       workers,
	}
}

// Worker registers a new worker with the engine, spawning the
// allocation cores if this is the first registration (or the first
// after a quiesce). The returned Worker is not safe for concurrent
// use; obtain one per goroutine and Unregister it when done.
func (e *Engine) Worker() *Worker {
	e.mu.Lock()
	for e.stopping.Load() {
		// A quiesce is in flight; let it finish, then restart.
		e.mu.Unlock()
		runtime.Gosched()
		e.mu.Lock()
	}
	if !e.running.Load() {
		e.running.Store(true)
		for i := 0; i < e.cores; i++ {
			e.coreWG.Add(1)
			e.live.Add(1)
			go e.runCore()
		}
	}
	e.workers++
	e.mu.Unlock()

	th := e.a.Thread()
	return &Worker{
		eng:   e,
		th:    th,
		h:     e.q.Handle(),
		stash: make([][]mem.Ptr, sizeclass.NumClasses()),
	}
}

// release is the Unregister-side bookkeeping; the last worker out
// quiesces the core fleet so idle engines hold no goroutines.
func (e *Engine) release() {
	e.mu.Lock()
	e.workers--
	last := e.workers == 0 && e.running.Load()
	e.mu.Unlock()
	if last {
		e.quiesce(false)
	}
}

// Stop force-quiesces the allocation cores. Workers still registered
// degrade to synchronous fallback until a new registration restarts
// the fleet. Queued work is drained before Stop returns.
func (e *Engine) Stop() { e.quiesce(true) }

func (e *Engine) quiesce(force bool) {
	e.mu.Lock()
	if !e.running.Load() || (!force && e.workers > 0) {
		e.mu.Unlock()
		return
	}
	e.stopping.Store(true)
	e.mu.Unlock()

	e.coreWG.Wait()
	// Adopt whatever the exiting (or killed) cores left behind: free
	// batches are executed, refills completed and delivered, so every
	// pending request resolves and no block is stranded.
	e.drainAll()

	e.mu.Lock()
	e.running.Store(false)
	e.stopping.Store(false)
	e.mu.Unlock()
}

// respawn replaces a killed core. Called by the dying core's
// undertaker before its WaitGroup slot is released, so the Add never
// races a Wait on a drained group.
func (e *Engine) respawn() {
	if e.stopping.Load() {
		return
	}
	e.mu.Lock()
	if e.running.Load() && !e.stopping.Load() {
		e.coreWG.Add(1)
		e.live.Add(1)
		go e.runCore()
	}
	e.mu.Unlock()
}

// runCore is one allocation core: dequeue, execute, repeat. On a kill
// (hook panic) the undertaker in execute has already adopted the
// in-flight request; the core counts the kill, arranges a successor,
// and exits without touching its dead thread handle again.
func (e *Engine) runCore() {
	defer e.coreWG.Done()
	defer e.live.Add(-1)
	h := e.q.Handle()
	defer h.Close()

	th := e.a.Thread()
	e.mu.Lock()
	hook := e.hook
	e.mu.Unlock()
	if hook != nil {
		th.SetHook(hook)
	}

	idle := 0
	for {
		req, ok := h.Dequeue()
		if !ok {
			if e.stopping.Load() && e.q.Len() == 0 {
				quietUnregister(th)
				return
			}
			idle++
			if idle < 64 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		idle = 0
		if killed := e.execute(th, req); killed {
			// th died mid-operation; like sched's killed victims it is
			// abandoned, never unregistered (its reservations are the
			// bounded leak the paper's kill semantics allow).
			e.coreKills.Add(1)
			e.respawn()
			return
		}
	}
}

// quietUnregister unregisters an exiting core's thread, tolerating a
// fault-injection kill during the final magazine flush: the core was
// exiting anyway, so the handle is simply abandoned like any killed
// thread (its cached blocks leak, bounded).
func quietUnregister(th *core.Thread) {
	defer func() { _ = recover() }()
	th.Unregister()
}

// execute runs one request on th. Returns killed=true if a hook panic
// aborted the operation; the request has then already been adopted.
func (e *Engine) execute(th *core.Thread, req *request) (killed bool) {
	defer func() {
		if r := recover(); r != nil {
			killed = true
			e.adopt(req)
		}
	}()
	switch req.kind {
	case reqFree:
		for req.next < len(req.ptrs) {
			p := req.ptrs[req.next]
			// Advance before the op: a kill mid-Free leaks exactly this
			// block and the undertaker's re-enqueue can never double-free.
			req.next++
			th.Free(p)
		}
		e.freeBatches.Add(1)
		e.freedBlocks.Add(uint64(len(req.ptrs)))
		req.finish()
	case reqRefill:
		size := sizeclass.ByIndex(req.class).PayloadBytes
		for len(req.ptrs) < req.count {
			p, err := th.Malloc(size)
			if err != nil {
				req.err = err
				e.refillErrors.Add(1)
				break
			}
			req.ptrs = append(req.ptrs, p)
		}
		e.refillBatches.Add(1)
		e.refillBlocks.Add(uint64(len(req.ptrs)))
		req.finish()
	}
	return false
}

// adopt resolves a killed core's in-flight request using only the
// queue and the request itself — never the dead thread handle.
func (e *Engine) adopt(req *request) {
	switch req.kind {
	case reqRefill:
		// Deliver the blocks allocated before the kill; the waiter
		// falls back synchronously for the rest. The single block whose
		// Malloc was in flight (if any) is leaked by the kill.
		if req.err == nil {
			req.err = ErrCoreKilled
		}
		e.refillErrors.Add(1)
		req.finish()
	case reqFree:
		// Re-enqueue the unprocessed remainder. ptrs[next-1] — the Free
		// in flight at the kill — may or may not have completed, so it
		// is leaked rather than risked as a double free.
		rest := req.ptrs[req.next:]
		req.finish()
		if len(rest) == 0 {
			return
		}
		e.adopted.Add(uint64(len(rest)))
		nr := &request{kind: reqFree, w: req.w, ptrs: append([]mem.Ptr(nil), rest...)}
		h := e.q.Handle()
		h.Enqueue(nr)
		h.Close()
	}
}

// drainAll executes every queued request on a fresh thread handle.
// Called after the core fleet has exited so refill waiters and free
// batches submitted in the shutdown race window still resolve.
func (e *Engine) drainAll() {
	th := e.a.Thread()
	h := e.q.Handle()
	for {
		req, ok := h.Dequeue()
		if !ok {
			break
		}
		e.execute(th, req)
	}
	h.Close()
	th.Unregister()
}

// drainOne lets a stuck worker make progress itself when the core
// fleet is gone (see Worker.Unregister).
func (e *Engine) drainOne(th *core.Thread, h *lfqueue.Handle[*request]) bool {
	req, ok := h.Dequeue()
	if !ok {
		return false
	}
	e.execute(th, req)
	return true
}

// deadStopping reports that the engine is quiescing and no allocation
// core remains to serve the queue.
func (e *Engine) deadStopping() bool {
	return e.stopping.Load() && e.live.Load() == 0
}

// ready reports whether submits should be attempted at all.
func (e *Engine) ready() bool {
	return e.running.Load() && !e.stopping.Load()
}

// Worker is one compute thread's interface to the engine: a private
// per-class block stash, a deferred-free buffer, and a mailbox for
// refill completions. Implements the same Malloc/Free/Unregister
// surface as core.Thread. Not safe for concurrent use.
type Worker struct {
	eng     *Engine
	th      *core.Thread
	h       *lfqueue.Handle[*request]
	stash   [][]mem.Ptr
	freeBuf []mem.Ptr
	pending *request // the single outstanding refill, if any
	mail    atomic.Pointer[request]
	closed  bool
}

// Thread exposes the worker's fallback thread handle (census
// attribution, tests).
func (w *Worker) Thread() *core.Thread { return w.th }

// poll absorbs a completed refill from the mailbox into the stash.
func (w *Worker) poll() {
	req := w.mail.Swap(nil)
	if req == nil {
		return
	}
	w.stash[req.class] = append(w.stash[req.class], req.ptrs...)
	if w.pending == req {
		w.pending = nil
	}
}

// Malloc returns a block of at least size bytes. Common path: one
// mailbox load and a stash pop — no shared allocator state touched.
func (w *Worker) Malloc(size uint64) (mem.Ptr, error) {
	if w.mail.Load() != nil {
		w.poll()
	}
	if w.closed {
		return w.th.Malloc(size)
	}
	cls, small := sizeclass.IndexFor(size)
	if !small {
		// Large allocations bypass the offload path entirely.
		return w.th.Malloc(size)
	}
	if s := w.stash[cls]; len(s) > 0 {
		p := s[len(s)-1]
		w.stash[cls] = s[:len(s)-1]
		w.eng.stashHits.Add(1)
		if len(s)-1 <= w.eng.low && w.pending == nil {
			// Prefetch: refill in the background while we keep
			// computing off the remaining stash.
			w.submitRefill(cls)
		}
		return p, nil
	}
	w.eng.stashMisses.Add(1)
	if w.pending == nil && !w.submitRefill(cls) {
		return w.fallbackMalloc(size)
	}
	if w.pending != nil && w.pending.class == cls && w.await() {
		if s := w.stash[cls]; len(s) > 0 {
			p := s[len(s)-1]
			w.stash[cls] = s[:len(s)-1]
			return p, nil
		}
	}
	return w.fallbackMalloc(size)
}

// Free releases a block. Small blocks are deferred into the batch
// buffer; large blocks and post-Unregister frees go straight through.
func (w *Worker) Free(p mem.Ptr) {
	if w.mail.Load() != nil {
		w.poll()
	}
	if w.closed || p.IsNil() || w.eng.a.BlockIsLarge(p) {
		w.th.Free(p)
		return
	}
	w.freeBuf = append(w.freeBuf, p)
	if len(w.freeBuf) >= w.eng.batch {
		w.flushFrees()
	}
}

// submitRefill enqueues a refill for cls unless backpressure or
// shutdown says no. Reports whether a request is now outstanding.
func (w *Worker) submitRefill(cls int) bool {
	e := w.eng
	if !e.ready() || e.q.Len() >= int(e.bound.Load()) {
		return false
	}
	req := &request{kind: reqRefill, w: w, class: cls, count: e.batch, ptrs: make([]mem.Ptr, 0, e.batch)}
	w.pending = req
	w.h.Enqueue(req)
	e.submits.Add(1)
	return true
}

// flushFrees submits the buffered frees as one request, or executes
// them synchronously under backpressure.
func (w *Worker) flushFrees() {
	if len(w.freeBuf) == 0 {
		return
	}
	e := w.eng
	if !e.ready() || e.q.Len() >= int(e.bound.Load()) {
		e.fallbacks.Add(1)
		for _, p := range w.freeBuf {
			w.th.Free(p)
		}
		w.freeBuf = w.freeBuf[:0]
		return
	}
	req := &request{kind: reqFree, w: w, ptrs: append(make([]mem.Ptr, 0, len(w.freeBuf)), w.freeBuf...)}
	w.freeBuf = w.freeBuf[:0]
	w.h.Enqueue(req)
	e.submits.Add(1)
}

// await spins (yielding) for the pending refill, bounded by
// awaitSpins. Reports whether the mailbox was absorbed.
func (w *Worker) await() bool {
	for i := 0; i < awaitSpins; i++ {
		if w.mail.Load() != nil {
			w.poll()
			return true
		}
		runtime.Gosched()
	}
	return false
}

func (w *Worker) fallbackMalloc(size uint64) (mem.Ptr, error) {
	w.eng.fallbacks.Add(1)
	return w.th.Malloc(size)
}

// Unregister resolves the outstanding refill, returns the stash and
// buffered frees to the allocator (balancing Mallocs == Frees at
// quiescence), and releases the worker's handles. The last worker out quiesces the
// engine's core fleet.
func (w *Worker) Unregister() {
	if w.closed {
		return
	}
	w.closed = true
	if req := w.pending; req != nil {
		// Guaranteed to resolve: a live core completes it, a killed
		// core's undertaker finishes it, the quiesce drain executes it,
		// or — if the fleet is already gone — we drain it ourselves.
		// Gone includes stopped: a Stop that ran to completion between
		// this worker's ready() check and its Enqueue left the request
		// queued with running false, and nobody else will ever take it.
		for req.state.Load() == reqPending {
			if !w.eng.running.Load() || w.eng.deadStopping() {
				if !w.eng.drainOne(w.th, w.h) {
					runtime.Gosched()
				}
				continue
			}
			runtime.Gosched()
		}
		w.poll()
		w.pending = nil
	}
	w.poll()
	for c := range w.stash {
		for _, p := range w.stash[c] {
			w.th.Free(p)
		}
		w.stash[c] = nil
	}
	for _, p := range w.freeBuf {
		w.th.Free(p)
	}
	w.freeBuf = nil
	w.h.Close()
	w.th.Unregister()
	w.eng.release()
}
