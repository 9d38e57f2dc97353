package alloc

import (
	"fmt"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

type lockFree struct{ a *core.Allocator }

func (w lockFree) Name() string      { return w.a.Name() }
func (w lockFree) NewThread() Thread { return w.a.Thread() }
func (w lockFree) Heap() *mem.Heap   { return w.a.Heap() }

// Core returns the underlying core allocator (for stats and tests).
func (w lockFree) Core() *core.Allocator { return w.a }

// CoreAccessor is implemented by the lock-free allocator built without
// Options.Shadow (the oracle wrapper does not forward it) to expose the
// underlying core.Allocator. Code that may be handed a wrapped
// allocator goes through HarnessOf instead.
type CoreAccessor interface{ Core() *core.Allocator }

// lockFreeConfig resolves the core.Config opt describes.
func lockFreeConfig(opt Options) core.Config {
	cfg := opt.LockFree
	if opt.Processors != 0 {
		cfg.Processors = opt.Processors
	}
	cfg.HeapConfig = opt.HeapConfig
	return cfg
}

// NewLockFree constructs the paper's lock-free allocator. Like
// core.New it normalises only zero values and panics on a
// configuration core.Config.Validate rejects; New returns that error
// instead.
func NewLockFree(opt Options) Allocator {
	return lookup("lockfree").shadowWrap(lockFree{core.New(lockFreeConfig(opt))}, opt)
}

func buildLockFree(_ *Backend, opt Options) (Allocator, error) {
	cfg := lockFreeConfig(opt)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return lockFree{core.New(cfg)}, nil
}

func (w lockFree) hookedThread(hook func(point int)) Thread {
	th := w.a.Thread()
	th.SetHook(func(p core.HookPoint) { hook(int(p)) })
	return th
}

func (w lockFree) census() []census.Part {
	sb, descs, sampled := census.TakeLockFree(w.a)
	return []census.Part{sb, census.TakeOS(w.a.Heap()), descs, sampled}
}

func (w lockFree) recorder() *telemetry.Recorder { return w.a.Telemetry() }

func (w lockFree) inspect(live int64) Report {
	// Quiescent by contract: count exactly the handles nobody
	// unregistered, dead victims included, without flushing a magazine.
	w.a.PublishStats()
	s := w.a.Stats()
	r := Report{LeakedWords: s.Heap.LiveWords, InvariantErr: w.a.CheckInvariants(live)}
	if live == 0 && r.InvariantErr == nil && s.Ops.Mallocs != s.Ops.Frees {
		r.InvariantErr = fmt.Errorf("malloc/free imbalance: %d vs %d", s.Ops.Mallocs, s.Ops.Frees)
	}
	return r
}
