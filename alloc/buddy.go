package alloc

import (
	"fmt"

	"repro/internal/buddy"
	"repro/internal/census"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// buddyAlloc exposes the non-blocking buddy system (internal/buddy,
// after Marotta et al., arXiv:1804.03436) as the sixth allocator: the
// only backend with lock-free coalescing. Where the lock-free core
// avoids coalescing entirely (Michael's fixed size classes) and the
// chunk-engine baselines coalesce under a lock, the buddy backend
// merges freed blocks back into larger ones with per-node CAS only.
type buddyAlloc struct {
	a *buddy.Allocator
	// rec is the recorder whose stripes count the CAS retries; nil for
	// an adopted allocator (FromBuddy), which wires its own.
	rec *telemetry.Recorder
}

func (w buddyAlloc) Name() string      { return w.a.Name() }
func (w buddyAlloc) NewThread() Thread { return w.a.Thread() }
func (w buddyAlloc) Heap() *mem.Heap   { return w.a.Heap() }

// FromBuddy adopts an already-constructed buddy allocator — one with a
// tree geometry or telemetry stripes Options cannot express — as the
// registry's "buddy" backend, oracle policy included.
func FromBuddy(b *buddy.Allocator, opt Options) Allocator {
	return lookup("buddy").shadowWrap(buddyAlloc{a: b}, opt)
}

func buildBuddy(_ *Backend, opt Options) (Allocator, error) {
	cfg := buddy.Config{HeapConfig: opt.HeapConfig}
	rec := opt.LockFree.Telemetry
	if rec != nil {
		cfg.Telemetry = rec.Stripes()
	}
	return buddyAlloc{buddy.New(cfg), rec}, nil
}

func (w buddyAlloc) hookedThread(hook func(point int)) Thread {
	th := w.a.Thread()
	th.SetHook(func(p buddy.HookPoint) { hook(int(p)) })
	return th
}

func (w buddyAlloc) census() []census.Part {
	return []census.Part{census.TakeBuddy(w.a), census.TakeOS(w.a.Heap())}
}

func (w buddyAlloc) recorder() *telemetry.Recorder { return w.rec }

// inspect: kills may leak blocks and strand coalescing marks, but no
// word may ever be owned by two live blocks (the non-strict safety
// walk), and the allocator must still function at every order. Without
// kills the tree must be exactly consistent, and after a full drain
// coalescing must have rebuilt whole-tree blocks.
func (w buddyAlloc) inspect(live int64) Report {
	b := w.a
	s := b.Stats()
	r := Report{
		// The tree regions themselves are the allocator's backing
		// store, live by construction; the leak is anything beyond them.
		LeakedWords:      b.Heap().Stats().LiveWords - uint64(s.Trees)*s.TreeWords,
		CoalBits:         b.CoalBits(),
		StrandedCoalBits: b.OrphanCoalBits(),
		InvariantErr:     b.CheckInvariants(live >= 0),
	}
	switch {
	case live < 0:
		r.ProbeErr = buddyProbe(b)
	case live == 0 && r.InvariantErr == nil:
		if r.CoalBits != 0 {
			r.InvariantErr = fmt.Errorf("buddy: %d coalescing marks stranded at quiescence", r.CoalBits)
		} else if bc := census.TakeBuddy(b); bc.Orders[0].Free != uint64(s.Trees) {
			r.InvariantErr = fmt.Errorf("buddy: %d of %d trees are one free block after a full drain (coalescing incomplete)",
				bc.Orders[0].Free, s.Trees)
		}
	}
	return r
}

// buddyProbe exercises every order of a possibly-damaged allocator:
// fresh allocations must still come back usable and disjoint.
func buddyProbe(a *buddy.Allocator) error {
	th := a.Thread()
	h := a.Heap()
	var ptrs []mem.Ptr
	for order := 0; order <= a.Depth(); order++ {
		bytes := (a.MaxBlockWords()>>order - 1) * mem.WordBytes
		p, err := th.Malloc(bytes)
		if err != nil {
			return fmt.Errorf("probe malloc at order %d (%d bytes): %w", order, bytes, err)
		}
		h.Set(p, uint64(order)+0xb0d0)
		ptrs = append(ptrs, p)
	}
	for i, p := range ptrs {
		if got := h.Get(p); got != uint64(i)+0xb0d0 {
			return fmt.Errorf("probe block at order %d: tattoo %#x clobbered", i, got)
		}
		th.Free(p)
	}
	return nil
}
