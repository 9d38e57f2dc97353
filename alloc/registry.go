package alloc

import (
	"fmt"
	"sort"

	"repro/internal/baseline/hoard"
	"repro/internal/baseline/ptmalloc"
	"repro/internal/baseline/serial"
	"repro/internal/buddy"
	"repro/internal/census"
	"repro/internal/chunkheap"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/shadow"
	"repro/internal/telemetry"
)

// Backend is one entry of the allocator registry: what the repository
// knows about an allocator beyond the Allocator interface. New, Names,
// the oracle wrapper and HarnessOf read this table and nothing else, so
// a new backend is one more entry (plus the harnessed methods on its
// allocator type if it has hook points).
type Backend struct {
	// Name is what Allocator.Name returns; Aliases (the paper's names
	// for the same allocator) select the entry in New too.
	Name    string
	Aliases []string

	// The shadow oracle's policy. VerifyOnReuse: a freed payload must
	// still hold its poison when the block is handed out again, sound
	// only where the free path keeps out of freed payloads.
	// PrefixIgnoreMask: header bits the backend rewrites on a live
	// block, which the prefix-stability check must skip.
	VerifyOnReuse    bool
	PrefixIgnoreMask uint64

	// HookPoints names the instrumented steps between the backend's
	// atomic operations, indexed by the point its thread hook receives;
	// a thread can be killed at any of them (internal/sched). Empty for
	// a lock-based backend: a thread killed inside it dies with the lock.
	HookPoints []string

	// build constructs the bare allocator; New adds the oracle wrapper.
	build func(b *Backend, opt Options) (Allocator, error)
}

// harnessed is implemented by the allocator types of the entries with
// HookPoints: the backend-specific half of Harness.
type harnessed interface {
	hookedThread(hook func(point int)) Thread
	// census lists the parts of a walk of the backend's own structures
	// and of its heap, top-down.
	census() []census.Part
	recorder() *telemetry.Recorder
	inspect(live int64) Report
}

// backends lists the registry in canonical benchmark order (the
// paper's: new allocator, Hoard, Ptmalloc, libc) plus the direct
// chunk-engine baseline and the non-blocking buddy system.
var backends = []Backend{
	{
		Name:    "lockfree",
		Aliases: []string{"new"},
		// The core keeps free-list links (magazine flush chains
		// included) in the high bits of the block prefix word, never the
		// payload, and writes a prefix only when it carves the superblock
		// or frees the block: a live block's prefix never changes.
		VerifyOnReuse: true,
		HookPoints:    hookPointNames(core.NumHookPoints),
		build:         buildLockFree,
	},
	{
		Name: "hoard",
		// Hoard's free lists overwrite a freed block's prefix word with
		// the link and malloc rewrites the prefix, so freed payloads stay
		// poisoned and a live block's prefix is stable.
		VerifyOnReuse: true,
		build: func(_ *Backend, opt Options) (Allocator, error) {
			a := hoard.New(hoard.Config{Processors: opt.Processors, HeapConfig: opt.HeapConfig})
			return baseline{a.Name(), a.Heap(), func() Thread { return a.Thread() }}, nil
		},
	},
	{
		Name: "ptmalloc",
		// The chunk engine writes fd/bk bin links and boundary-tag
		// footers inside freed payloads, and flips prev-in-use on a
		// live neighbour.
		PrefixIgnoreMask: chunkheap.MutableHeaderBits,
		build: func(_ *Backend, opt Options) (Allocator, error) {
			a := ptmalloc.New(ptmalloc.Config{Arenas: opt.Processors, HeapConfig: opt.HeapConfig})
			return baseline{a.Name(), a.Heap(), func() Thread { return a.Thread() }}, nil
		},
	},
	{
		Name:    "serial",
		Aliases: []string{"libc"},
		// The best-fit tree threads child links through freed payloads.
		PrefixIgnoreMask: chunkheap.MutableHeaderBits,
		build: func(_ *Backend, opt Options) (Allocator, error) {
			a := serial.New(serial.Config{HeapConfig: opt.HeapConfig})
			return baseline{a.Name(), a.Heap(), func() Thread { return a.Thread() }}, nil
		},
	},
	{
		Name:             "chunkheap",
		PrefixIgnoreMask: chunkheap.MutableHeaderBits,
		build: func(_ *Backend, opt Options) (Allocator, error) {
			return newChunkHeap(opt), nil
		},
	},
	{
		Name: "buddy",
		// The buddy's free path never touches the heap (all bookkeeping
		// is Go-side status words), but its malloc path writes a
		// sub-block's prefix inside the extent of an enclosing freed
		// block when it fragments a coalesced region, so reuse
		// verification would flag legitimate writes.
		HookPoints: hookPointNames(buddy.NumHookPoints),
		build:      buildBuddy,
	},
}

// baseline adapts a lock-based baseline, whose Thread method returns
// its own handle type, to Allocator.
type baseline struct {
	name   string
	heap   *mem.Heap
	thread func() Thread
}

func (b baseline) Name() string      { return b.name }
func (b baseline) Heap() *mem.Heap   { return b.heap }
func (b baseline) NewThread() Thread { return b.thread() }

// hookPointNames renders a backend's hook-point enumeration [0, n) as
// the registry's name table.
func hookPointNames[P interface {
	~int
	String() string
}](n P) []string {
	names := make([]string, n)
	for p := P(0); p < n; p++ {
		names[p] = p.String()
	}
	return names
}

// Backends returns a copy of the registry table.
func Backends() []Backend { return append([]Backend(nil), backends...) }

// Names lists the registered allocator names in registry order.
func Names() []string {
	names := make([]string, len(backends))
	for i := range backends {
		names[i] = backends[i].Name
	}
	return names
}

// lookup finds the entry called name, by Name or alias.
func lookup(name string) *Backend {
	for i := range backends {
		b := &backends[i]
		if b.Name == name {
			return b
		}
		for _, alias := range b.Aliases {
			if alias == name {
				return b
			}
		}
	}
	return nil
}

// New constructs an allocator by name. An invalid lock-free
// configuration (core.Config.Validate) is returned as an error.
func New(name string, opt Options) (Allocator, error) {
	b := lookup(name)
	if b == nil {
		valid := Names()
		sort.Strings(valid)
		return nil, fmt.Errorf("alloc: unknown allocator %q (valid: %v)", name, valid)
	}
	a, err := b.build(b, opt)
	if err != nil {
		return nil, fmt.Errorf("alloc: %w", err)
	}
	return b.shadowWrap(a, opt), nil
}

// Report is what a backend finds when it inspects itself while no
// operation is in flight (Harness.Inspect). Its counters are in the
// census.
type Report struct {
	// LeakedWords is the heap space still allocated from the OS layer
	// beyond the backend's own backing store (buddy trees): after every
	// block is freed, its cache plus what killed threads took with them.
	LeakedWords uint64
	// InvariantErr is the structural check's verdict: corruption, never
	// mere leakage. ProbeErr is that of the functional probe run after
	// kills (the buddy allocates, writes and frees a block of every
	// order through the possibly damaged trees).
	InvariantErr, ProbeErr error
	// CoalBits counts the buddy's coalescing marks still set,
	// StrandedCoalBits those no live block accounts for
	// (buddy.OrphanCoalBits); zero for every other backend.
	CoalBits, StrandedCoalBits int
}

// Harness is an allocator seen through its registry entry: what the
// fault-injection harnesses and diagnostic tools drive a backend by
// without knowing which one it is.
type Harness struct {
	a      Allocator // as the caller holds it, possibly the oracle wrapper
	raw    Allocator // as the entry's build returned it
	points []string
}

// HarnessOf binds a to its registry entry. An allocator from elsewhere
// has no hook points, a census of its heap only and a Report of
// LeakedWords only.
func HarnessOf(a Allocator) Harness {
	h := Harness{a: a, raw: a}
	if s, ok := a.(*shadowed); ok {
		h.raw = s.inner
	}
	if b := lookup(a.Name()); b != nil {
		h.points = b.HookPoints
	}
	return h
}

// HookPoints is the entry's kill-point table (Backend.HookPoints).
func (h Harness) HookPoints() []string { return h.points }

// NewThread registers a worker whose every instrumented step calls
// hook with the index of the point reached; a hook that panics abandons
// the operation there, which is how a harness kills a thread. A nil
// hook, or a backend without hook points, gives a plain NewThread.
func (h Harness) NewThread(hook func(point int)) Thread {
	k, ok := h.raw.(harnessed)
	if hook == nil || !ok {
		return h.a.NewThread()
	}
	if s, ok := h.a.(*shadowed); ok {
		return s.mirror(k.hookedThread(hook))
	}
	return k.hookedThread(hook)
}

// Census makes one walk of the allocator, safe while other threads
// allocate, free, or lie dead mid-operation: the OS layer under every
// backend (internal/mem), and the backend's own structures where it has
// a walker.
func (h Harness) Census() *census.Census {
	if k, ok := h.raw.(harnessed); ok {
		return census.New(k.census()...)
	}
	return census.New(census.TakeOS(h.raw.Heap()))
}

// Recorder is the telemetry recorder the backend was built with
// (Options.LockFree.Telemetry); nil if it has none or keeps no counters.
func (h Harness) Recorder() *telemetry.Recorder {
	if k, ok := h.raw.(harnessed); ok {
		return k.recorder()
	}
	return nil
}

// Oracle is the shadow oracle attached by Options.Shadow, nil without
// one. Its owner releases it with Close (it is registered process-wide
// for cross-allocator attribution).
func (h Harness) Oracle() *shadow.Oracle {
	if s, ok := h.a.(*shadowed); ok {
		return s.oracle
	}
	return nil
}

// ShadowErr is the attached shadow oracle's verdict so far; nil without
// an oracle. Collect it before Inspect(-1), whose probe reuses freed
// blocks without mirroring.
func (h Harness) ShadowErr() error {
	if o := h.Oracle(); o != nil {
		return o.Err()
	}
	return nil
}

// Inspect checks the allocator, which must be quiescent. live >= 0 is
// the number of small blocks still held, everything else freed: the
// backend runs its strict check (exact counts; at 0 also balanced
// operation counters and no coalescing left undone). live < 0 means
// threads were killed and what is held is unknowable: the check is the
// one that survives any crash point — structures walkable, no word
// owned twice — followed by the functional probe.
func (h Harness) Inspect(live int64) Report {
	if k, ok := h.raw.(harnessed); ok {
		return k.inspect(live)
	}
	return Report{LeakedWords: h.raw.Heap().Stats().LiveWords}
}
