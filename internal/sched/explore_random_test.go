package sched

import (
	"testing"

	"repro/alloc"
	"repro/internal/core"
	"repro/internal/mem"
)

// TestExploreRandomMixedSizes samples random schedules of a 3-thread
// mixed-size workload whose systematic space is far too large to
// enumerate.
func TestExploreRandomMixedSizes(t *testing.T) {
	script := func(sizes []uint64) Script {
		return func(th alloc.Thread) {
			var ps []mem.Ptr
			for _, sz := range sizes {
				p, err := th.Malloc(sz)
				if err != nil {
					panic(err)
				}
				ps = append(ps, p)
			}
			// Free interleaved with one more allocation.
			th.Free(ps[0])
			p, err := th.Malloc(sizes[0])
			if err != nil {
				panic(err)
			}
			th.Free(p)
			for _, q := range ps[1:] {
				th.Free(q)
			}
		}
	}
	res, err := ExploreRandom(ExploreConfig{
		NewTarget: exploreAlloc,
		Scripts: []Script{
			script([]uint64{8, 2048, 64}),
			script([]uint64{2048, 8, 256}),
			script([]uint64{64, 64, 2048}),
		},
		Check: quiescent(0),
	}, 150, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedules != 150 {
		t.Errorf("schedules = %d", res.Schedules)
	}
}

// TestExploreRandomHyperblocks samples schedules against the
// hyperblock-enabled allocator.
func TestExploreRandomHyperblocks(t *testing.T) {
	pair := func(th alloc.Thread) {
		var ps []mem.Ptr
		for i := 0; i < 4; i++ {
			p, err := th.Malloc(2048)
			if err != nil {
				panic(err)
			}
			ps = append(ps, p)
		}
		for _, p := range ps {
			th.Free(p)
		}
	}
	res, err := ExploreRandom(ExploreConfig{
		NewTarget: func() Target {
			return lockFree(core.Config{
				Processors:  1,
				Hyperblocks: true,
				HeapConfig:  mem.Config{SegmentWordsLog2: 18, TotalWordsLog2: 27},
			}, false)
		},
		Scripts: []Script{pair, pair},
		Check:   quiescent(0),
	}, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedules != 100 {
		t.Errorf("schedules = %d", res.Schedules)
	}
}
