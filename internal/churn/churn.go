// Package churn is the repository's one random malloc/free loop. The
// kill harness (internal/sched), mlfstress and allocmon all need the
// same thing — a goroutine that keeps a bounded, randomly turned-over
// set of blocks of mixed sizes alive on one alloc.Thread — and differ
// only in the mix and in what happens around the loop, so the loop
// lives here and they drive it a step at a time.
package churn

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/alloc"
	"repro/internal/mem"
)

// Mix shapes the traffic of one Driver.
type Mix struct {
	// FreeOneIn makes a step free with probability 1/FreeOneIn while
	// any block is held. Above 2 the live set drifts upward.
	FreeOneIn int
	// MaxLive bounds the live set: a step holding more blocks than this
	// always frees. 0 leaves it unbounded.
	MaxLive int
	// SizeShifts sets the small request sizes, 8<<rand(SizeShifts) bytes.
	SizeShifts int
	// LargeOneIn turns one malloc in LargeOneIn into a request of
	// 4096+rand(LargeSpan) bytes: the classes of two and three blocks a
	// superblock and, past half a superblock, large blocks (for the
	// buddy, several orders). 0 = never.
	LargeOneIn, LargeSpan int
}

var (
	// Victim is the mix of a thread about to be killed: blocks up to
	// 1 KiB and a live set that keeps growing, so that a victim pinned
	// to a rare step — installing a new superblock, growing a buddy
	// tree — gets there.
	Victim = Mix{FreeOneIn: 3, SizeShifts: 8}
	// Survivor is the mix of a thread that must keep making progress
	// beside the victims: the same sizes around 32 live blocks.
	Survivor = Mix{FreeOneIn: 2, MaxLive: 32, SizeShifts: 8}
	// Mixed is the mix of the command-line tools: up to 128 live blocks
	// of up to 2 KiB, one in a hundred between 4 and 20 KiB.
	Mixed = Mix{FreeOneIn: 2, MaxLive: 128, SizeShifts: 9, LargeOneIn: 100, LargeSpan: 16384}
)

// Driver churns one thread handle. It is not safe for concurrent use,
// except that the operation counters may be read from any goroutine.
type Driver struct {
	th   alloc.Thread
	rng  *rand.Rand
	mix  Mix
	held []mem.Ptr

	mallocs, frees atomic.Uint64
}

// New returns a driver for th whose choices are a function of seed.
func New(th alloc.Thread, seed int64, mix Mix) *Driver {
	return &Driver{th: th, rng: rand.New(rand.NewSource(seed)), mix: mix}
}

// Step performs one operation: it frees a random held block or
// allocates one more. The only error is the allocator's Malloc error.
// If the operation panics (a kill), the block being freed is still
// counted in Live and a block being allocated is not: the caller's
// books match what a thread killed there would have known.
func (d *Driver) Step() error {
	if n := len(d.held); n > 0 && (d.rng.Intn(d.mix.FreeOneIn) == 0 || (d.mix.MaxLive > 0 && n > d.mix.MaxLive)) {
		k := d.rng.Intn(n)
		d.th.Free(d.held[k])
		d.held[k] = d.held[n-1]
		d.held = d.held[:n-1]
		d.frees.Add(1)
		return nil
	}
	size := uint64(8 << d.rng.Intn(d.mix.SizeShifts))
	if d.mix.LargeOneIn > 0 && d.rng.Intn(d.mix.LargeOneIn) == 0 {
		size = 4096 + uint64(d.rng.Intn(d.mix.LargeSpan))
	}
	p, err := d.th.Malloc(size)
	if err != nil {
		return err
	}
	d.held = append(d.held, p)
	d.mallocs.Add(1)
	return nil
}

// Drain frees the live set and, where the handle caches blocks
// (alloc.Unregisterer), returns the cache too, so the allocator is left
// as a departing thread would leave it. Killed inside it, Live counts
// the block being freed and those not yet reached, as in Step.
func (d *Driver) Drain() {
	for n := len(d.held); n > 0; n = len(d.held) {
		d.th.Free(d.held[n-1])
		d.held = d.held[:n-1]
		d.frees.Add(1)
	}
	if u, ok := d.th.(alloc.Unregisterer); ok {
		u.Unregister()
	}
}

// Live is the number of blocks currently held.
func (d *Driver) Live() int { return len(d.held) }

// Mallocs and Frees count the completed operations.
func (d *Driver) Mallocs() uint64 { return d.mallocs.Load() }
func (d *Driver) Frees() uint64   { return d.frees.Load() }

// Run churns workers goroutines for ops steps each on handles from
// newThread, worker i seeded seed+i; each worker then drains. It
// returns the completed mallocs and frees and the first Malloc error,
// which stops that worker's stepping early.
func Run(workers, ops int, seed int64, mix Mix, newThread func() alloc.Thread) (mallocs, frees uint64, err error) {
	var wg sync.WaitGroup
	drivers := make([]*Driver, workers)
	errs := make([]error, workers)
	for i := range drivers {
		d := New(newThread(), seed+int64(i), mix)
		drivers[i] = d
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < ops && errs[i] == nil; n++ {
				errs[i] = d.Step()
			}
			d.Drain()
		}(i)
	}
	wg.Wait()
	for i, d := range drivers {
		mallocs += d.Mallocs()
		frees += d.Frees()
		if err == nil {
			err = errs[i]
		}
	}
	return mallocs, frees, err
}
