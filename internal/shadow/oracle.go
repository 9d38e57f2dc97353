package shadow

import (
	"fmt"
	"sync"

	"repro/internal/mem"
)

// pageShift indexes blocks by 512-word pages for overlap queries; a
// block is registered under every page its payload touches.
const pageShift = 9

// blockRec is the model's record of one block the allocator returned.
type blockRec struct {
	start       mem.Ptr
	words       uint64 // usable payload words
	size        uint64 // requested bytes
	prefix      uint64 // prefix word observed right after allocation
	allocThread int64
	freeThread  int64
	poisoned    bool
}

func (r *blockRec) end() mem.Ptr { return r.start.Add(r.words) }

// Oracle is the reference heap model. One mutex guards the whole
// model; it is held only across model updates, never across allocator
// operations, so the allocator under test keeps its own concurrency.
type Oracle struct {
	cfg Config

	mu          sync.Mutex
	live        map[mem.Ptr]*blockRec
	freed       map[mem.Ptr]*blockRec // most recent free per address
	livePages   map[uint64][]*blockRec
	poisonPages map[uint64][]*blockRec
	first       Violation // the first violation recorded, for Err
	nViol       uint64
}

var (
	registryMu sync.Mutex
	registry   = map[*Oracle]struct{}{}
)

// New constructs an oracle over cfg.Heap and installs the
// region-recycle hook that invalidates stale poison there, so it must
// run before the first mirrored operation.
func New(cfg Config) *Oracle {
	o := &Oracle{
		cfg:         cfg,
		live:        map[mem.Ptr]*blockRec{},
		freed:       map[mem.Ptr]*blockRec{},
		livePages:   map[uint64][]*blockRec{},
		poisonPages: map[uint64][]*blockRec{},
	}
	o.cfg.Heap.SetRegionHook(o.InvalidateRange)
	if cfg.CrossCheck {
		registryMu.Lock()
		registry[o] = struct{}{}
		registryMu.Unlock()
	}
	return o
}

// Close deregisters a cross-checking oracle and detaches the region
// hook. The oracle must not be used afterwards.
func (o *Oracle) Close() {
	if o.cfg.CrossCheck {
		registryMu.Lock()
		delete(registry, o)
		registryMu.Unlock()
	}
	o.cfg.Heap.SetRegionHook(nil)
}

// NoteMalloc mirrors a successful Malloc(size) that returned p with
// `usable` payload words. Call it *after* the allocator operation.
func (o *Oracle) NoteMalloc(thread uint64, p mem.Ptr, size, usable uint64) {
	if p.IsNil() {
		return
	}
	th := int64(thread)
	var out []Violation
	o.mu.Lock()
	if old := o.live[p]; old != nil {
		out = append(out, Violation{
			Kind: KindOverlap, Allocator: o.cfg.Name, Ptr: p,
			Thread: th, AllocThread: old.allocThread, FreeThread: -1,
			Detail: fmt.Sprintf("address handed out twice: still live as a %d-word block", old.words),
		})
		o.removeLive(old)
	} else if ov := o.overlapping(p, usable); ov != nil {
		out = append(out, Violation{
			Kind: KindOverlap, Allocator: o.cfg.Name, Ptr: p,
			Thread: th, AllocThread: ov.allocThread, FreeThread: -1,
			Detail: fmt.Sprintf("new %d-word block overlaps live block [%v,%v)", usable, ov.start, ov.end()),
		})
	}
	if fr := o.freed[p]; fr != nil {
		if fr.poisoned {
			n := min(fr.words, usable)
			for i := uint64(0); i < n; i++ {
				got := o.cfg.Heap.Get(p.Add(i))
				if got == PoisonWord {
					continue
				}
				out = append(out, Violation{
					Kind: KindWriteAfterFree, Allocator: o.cfg.Name, Ptr: p,
					Thread: th, AllocThread: fr.allocThread, FreeThread: fr.freeThread,
					Detail: fmt.Sprintf("payload word %d written while free: got %#x, want poison %#x", i, got, uint64(PoisonWord)),
				})
				break
			}
		}
		o.dropFreed(fr)
	}
	if usable*mem.WordBytes < size {
		out = append(out, Violation{
			Kind: KindUndersized, Allocator: o.cfg.Name, Ptr: p,
			Thread: th, AllocThread: th, FreeThread: -1,
			Detail: fmt.Sprintf("usable size %d bytes < requested %d bytes", usable*mem.WordBytes, size),
		})
	}
	rec := &blockRec{
		start: p, words: usable, size: size,
		prefix: o.cfg.Heap.Load(p - 1), allocThread: th, freeThread: -1,
	}
	o.live[p] = rec
	o.addPages(o.livePages, rec)
	o.recordLocked(out)
	o.mu.Unlock()
	o.report(out)
}

// NoteFree mirrors a Free(p). Call it *before* the allocator
// operation; a false return means the free is invalid (already freed,
// never allocated, interior, or clobbered) and the caller must NOT
// forward it to the allocator — in collecting mode this keeps the
// allocator itself intact so the run can finish and report.
func (o *Oracle) NoteFree(thread uint64, p mem.Ptr) bool {
	if p.IsNil() {
		return true
	}
	th := int64(thread)
	o.mu.Lock()
	rec := o.live[p]
	if rec == nil {
		fr := o.freed[p]
		var host *blockRec
		if fr == nil {
			host = o.containing(p)
		}
		o.mu.Unlock()
		v := Violation{Allocator: o.cfg.Name, Ptr: p, Thread: th, AllocThread: -1, FreeThread: -1}
		switch {
		case fr != nil:
			v.Kind = KindDoubleFree
			v.AllocThread = fr.allocThread
			v.FreeThread = fr.freeThread
			v.Detail = fmt.Sprintf("block already freed by thread %s (allocated by thread %s)",
				threadID(fr.freeThread), threadID(fr.allocThread))
		case host != nil:
			v.Kind = KindInteriorFree
			v.AllocThread = host.allocThread
			v.Detail = fmt.Sprintf("pointer lands %d words into live block [%v,%v)",
				p.Sub(host.start), host.start, host.end())
		default:
			// Consult sibling oracles without holding our own lock.
			if name := findElsewhere(o, p); name != "" {
				v.Kind = KindCrossAllocatorFree
				v.Detail = fmt.Sprintf("pointer is live in allocator %q", name)
			} else {
				v.Kind = KindUnknownFree
				v.Detail = "pointer was never returned by this allocator"
			}
		}
		o.mu.Lock()
		o.recordLocked([]Violation{v})
		o.mu.Unlock()
		o.report([]Violation{v})
		return false
	}
	if cur := o.cfg.Heap.Load(p - 1); cur&^o.cfg.PrefixIgnoreMask != rec.prefix&^o.cfg.PrefixIgnoreMask {
		v := Violation{
			Kind: KindPrefixMismatch, Allocator: o.cfg.Name, Ptr: p,
			Thread: th, AllocThread: rec.allocThread, FreeThread: -1,
			Detail: fmt.Sprintf("prefix word is %#x, was %#x at allocation; freeing through it would corrupt the allocator", cur, rec.prefix),
		}
		o.recordLocked([]Violation{v})
		o.mu.Unlock()
		o.report([]Violation{v})
		return false
	}
	o.removeLive(rec)
	rec.freeThread = th
	if old := o.freed[p]; old != nil {
		o.dropFreed(old)
	}
	o.freed[p] = rec
	if rec.words <= maxPoisonWords {
		for i := uint64(0); i < rec.words; i++ {
			o.cfg.Heap.Set(p.Add(i), PoisonWord)
		}
		if o.cfg.VerifyOnReuse {
			rec.poisoned = true
			o.addPages(o.poisonPages, rec)
		}
	}
	o.mu.Unlock()
	return true
}

// InvalidateRange drops poison expectations for every freed block
// inside [base, base+words): the range is returning to the region
// layer, whose recycling may legitimately rewrite it. Installed as the
// heap's region hook by New. It also flags live blocks inside
// the range — an allocator returning a region out from under live
// blocks is itself a use-after-free.
func (o *Oracle) InvalidateRange(base mem.Ptr, words uint64) {
	var out []Violation
	end := base.Add(words)
	o.mu.Lock()
	for pg := uint64(base) >> pageShift; pg <= (uint64(end)-1)>>pageShift; pg++ {
		for _, r := range o.poisonPages[pg] {
			if r.start >= base && r.start < end {
				r.poisoned = false
			}
		}
		delete(o.poisonPages, pg)
		for _, r := range o.livePages[pg] {
			if r.start >= base && r.start < end {
				out = append(out, Violation{
					Kind: KindRecycledLive, Allocator: o.cfg.Name, Ptr: r.start,
					Thread: -1, AllocThread: r.allocThread, FreeThread: -1,
					Detail: fmt.Sprintf("region [%v,%v) recycled while %d-word block is live", base, end, r.words),
				})
			}
		}
	}
	o.recordLocked(out)
	o.mu.Unlock()
	o.report(out)
}

// Err returns nil if no violation was detected, else an error naming
// the first violation and the total count.
func (o *Oracle) Err() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.nViol == 0 {
		return nil
	}
	return fmt.Errorf("shadow: %d violation(s), first: %w", o.nViol, o.first)
}

// LiveBlocks returns the number of blocks the model believes live.
func (o *Oracle) LiveBlocks() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.live)
}

// --- model internals (all called with o.mu held unless noted) ---

func (o *Oracle) addPages(idx map[uint64][]*blockRec, r *blockRec) {
	for pg := uint64(r.start) >> pageShift; pg <= (uint64(r.end())-1)>>pageShift; pg++ {
		idx[pg] = append(idx[pg], r)
	}
}

func removeFromPage(idx map[uint64][]*blockRec, pg uint64, r *blockRec) {
	s := idx[pg]
	for i, x := range s {
		if x == r {
			s[i] = s[len(s)-1]
			s = s[:len(s)-1]
			break
		}
	}
	if len(s) == 0 {
		delete(idx, pg)
	} else {
		idx[pg] = s
	}
}

func (o *Oracle) removeLive(r *blockRec) {
	delete(o.live, r.start)
	for pg := uint64(r.start) >> pageShift; pg <= (uint64(r.end())-1)>>pageShift; pg++ {
		removeFromPage(o.livePages, pg, r)
	}
}

func (o *Oracle) dropFreed(r *blockRec) {
	delete(o.freed, r.start)
	if r.poisoned {
		for pg := uint64(r.start) >> pageShift; pg <= (uint64(r.end())-1)>>pageShift; pg++ {
			removeFromPage(o.poisonPages, pg, r)
		}
	}
}

// overlapping returns a live block intersecting [p, p+words), or nil.
func (o *Oracle) overlapping(p mem.Ptr, words uint64) *blockRec {
	end := p.Add(words)
	for pg := uint64(p) >> pageShift; pg <= (uint64(end)-1)>>pageShift; pg++ {
		for _, r := range o.livePages[pg] {
			if r.start < end && p < r.end() {
				return r
			}
		}
	}
	return nil
}

// containing returns the live block strictly containing p, or nil.
func (o *Oracle) containing(p mem.Ptr) *blockRec {
	for _, r := range o.livePages[uint64(p)>>pageShift] {
		if r.start < p && p < r.end() {
			return r
		}
	}
	return nil
}

func (o *Oracle) recordLocked(vs []Violation) {
	if len(vs) > 0 && o.nViol == 0 {
		o.first = vs[0]
	}
	o.nViol += uint64(len(vs))
}

// report delivers violations outside the model lock: to OnViolation in
// collecting mode, else by panicking with the violation's report.
func (o *Oracle) report(vs []Violation) {
	for _, v := range vs {
		if o.cfg.OnViolation != nil {
			o.cfg.OnViolation(v)
			continue
		}
		panic(v.Error())
	}
}

// findElsewhere reports the name of a registered sibling oracle that
// believes p is live (or contains it). Called WITHOUT o.mu held; each
// sibling is locked briefly in turn, so no lock-order cycle exists.
func findElsewhere(self *Oracle, p mem.Ptr) string {
	registryMu.Lock()
	others := make([]*Oracle, 0, len(registry))
	for other := range registry {
		if other != self {
			others = append(others, other)
		}
	}
	registryMu.Unlock()
	for _, other := range others {
		other.mu.Lock()
		_, ok := other.live[p]
		if !ok {
			ok = other.containing(p) != nil
		}
		name := other.cfg.Name
		other.mu.Unlock()
		if ok {
			return name
		}
	}
	return ""
}
