package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/sizeclass"
)

// fewBlockClasses are the classes of two and three blocks a superblock
// (5448 B with three, 6136 B on 12 KiB and 8184 B on 16 KiB with two),
// where the credit arithmetic runs at its edge: MallocFromNewSB takes
// block 0 and installs the other n−1 as Active, so for n = 2 Active
// carries no credit beyond the one every non-NULL Active word stands
// for, and each malloc from it takes the last.
func fewBlockClasses(t *testing.T) []sizeclass.Class {
	var out []sizeclass.Class
	counts := map[uint64]bool{}
	for _, c := range sizeclass.All() {
		if c.MaxCount <= 3 {
			out = append(out, c)
			counts[c.MaxCount] = true
		}
	}
	if !counts[2] || !counts[3] {
		t.Fatalf("classes of at most 3 blocks a superblock: %+v, want some of 3 and of 2", out)
	}
	return out
}

// className names a class in a subtest by its block count, and its
// superblock size where that is not the 16 KiB of most classes.
func className(cls sizeclass.Class) string {
	if cls.SBWords == sizeclass.SuperblockWords {
		return fmt.Sprintf("n=%d", cls.MaxCount)
	}
	return fmt.Sprintf("n=%d/sb=%d", cls.MaxCount, cls.SBWords)
}

// TestFewBlockClasses walks one superblock of each through every state:
// carved and installed, filled to FULL with Active left NULL, back
// through PARTIAL (and a malloc served from it) to EMPTY, freeing by the
// allocating handle or by another, with magazines off and with
// MagazineSize 8, where a refill finds one or two blocks to reserve.
func TestFewBlockClasses(t *testing.T) {
	for _, cls := range fewBlockClasses(t) {
		for _, mag := range []int{0, 8} {
			for _, remote := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/magazine=%d/remote=%v", className(cls), mag, remote), func(t *testing.T) {
					walkFewBlockClass(t, cls, mag, remote)
				})
			}
		}
	}
}

func walkFewBlockClass(t *testing.T, cls sizeclass.Class, mag int, remote bool) {
	cfg := testConfig()
	cfg.Processors = 2
	cfg.MagazineSize = mag
	a := New(cfg)
	owner := a.Thread()
	freer := owner
	if remote {
		freer = a.Thread() // the other processor heap
	}
	n := cls.MaxCount
	heap := owner.findHeap(&a.classes[cls.Index])
	malloc := func() mem.Ptr {
		t.Helper()
		p, err := owner.Malloc(cls.PayloadBytes)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// free releases p all the way to its anchor: a magazine would hold
	// it back until the watermark.
	free := func(p mem.Ptr) {
		freer.Free(p)
		freer.FlushMagazines()
	}
	anchorOf := func(p mem.Ptr) atomicx.Anchor {
		return atomicx.UnpackAnchor(a.desc(prefixDesc(a.heap.Load(p - 1))).Anchor.Load())
	}
	expect := func(when string, p mem.Ptr, state, count uint64) {
		t.Helper()
		if an := anchorOf(p); an.State != state || an.Count != count {
			t.Fatalf("%s: anchor %s count %d, want %s count %d", when,
				atomicx.StateName(an.State), an.Count, atomicx.StateName(state), count)
		}
	}

	// Carve: block 0 to the caller, the rest reserved through Active.
	ptrs := []mem.Ptr{malloc()}
	desc := prefixDesc(a.heap.Load(ptrs[0] - 1))
	if act := atomicx.UnpackActive(heap.Active.Load()); act.Desc != desc || act.Credits != n-2 {
		t.Fatalf("fresh superblock installed as Active %+v, want desc %d with %d credits", act, desc, n-2)
	}
	expect("after the carve", ptrs[0], atomicx.StateActive, 0)

	// Fill: the malloc that takes the last credit finds count 0 and
	// declares the superblock FULL; Active stays NULL.
	for uint64(len(ptrs)) < n {
		ptrs = append(ptrs, malloc())
	}
	seen := map[mem.Ptr]bool{}
	for i, p := range ptrs {
		if seen[p] || prefixDesc(a.heap.Load(p-1)) != desc || owner.UsableWords(p) != cls.BlockWords-1 {
			t.Fatalf("block %d at %v: duplicate, foreign superblock or wrong size", i, p)
		}
		seen[p] = true
		a.heap.Set(p.Add(cls.BlockWords-2), uint64(i)) // last payload word
	}
	if w := heap.Active.Load(); w != 0 {
		t.Fatalf("Active = %#x after the superblock's last block, want NULL", w)
	}
	expect("after the fill", ptrs[0], atomicx.StateFull, 0)
	if err := a.CheckInvariants(int64(n)); err != nil {
		t.Fatal(err)
	}

	// FULL -> PARTIAL: the freer links the superblock back in, and the
	// next malloc is served from it and leaves it FULL again (n = 2, or
	// one block free) — never from a second superblock.
	free(ptrs[0])
	expect("after one free", ptrs[1], atomicx.StatePartial, 1)
	before := owner.OpStats()
	ptrs[0] = malloc()
	if d := owner.OpStats(); d.FromPartial != before.FromPartial+1 || d.FromNewSB != before.FromNewSB {
		t.Fatalf("malloc beside a PARTIAL superblock: from partial %d -> %d, from new superblocks %d -> %d",
			before.FromPartial, d.FromPartial, before.FromNewSB, d.FromNewSB)
	}
	if prefixDesc(a.heap.Load(ptrs[0]-1)) != desc {
		t.Fatal("the block came from another superblock")
	}
	expect("after the malloc from PARTIAL", ptrs[0], atomicx.StateFull, 0)

	// A second superblock while the first is FULL, so that the frees
	// below meet an Active word that names another descriptor.
	other := malloc()
	if prefixDesc(a.heap.Load(other-1)) == desc {
		t.Fatal("a FULL superblock served another block")
	}

	// PARTIAL by PARTIAL to EMPTY, in two or three frees.
	for i, p := range ptrs {
		if got := a.heap.Get(p.Add(cls.BlockWords - 2)); i > 0 && got != uint64(i) {
			t.Fatalf("block %d lost its payload: %d", i, got)
		}
		emptied := a.Stats().Ops.EmptySBFreed
		free(p)
		if left := n - uint64(i) - 1; left > 0 {
			expect(fmt.Sprintf("with %d blocks left", left), ptrs[i+1], atomicx.StatePartial, uint64(i)+1)
		} else if got := a.Stats().Ops.EmptySBFreed; got != emptied+1 {
			t.Fatalf("freeing the last block returned %d superblocks, want 1", got-emptied)
		}
	}
	if st := atomicx.UnpackAnchor(a.desc(desc).Anchor.Load()).State; st != atomicx.StateEmpty {
		t.Fatalf("descriptor left %s", atomicx.StateName(st))
	}
	if err := a.CheckInvariants(1); err != nil {
		t.Fatal(err)
	}

	free(other)
	owner.Unregister()
	freer.Unregister()
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Ops.Mallocs != st.Ops.Frees || st.Ops.Mallocs != n+2 {
		t.Fatalf("mallocs %d, frees %d, want %d each", st.Ops.Mallocs, st.Ops.Frees, n+2)
	}
	// What stays live is one superblock per descriptor still installed.
	if held := (st.DescsAllocated - st.DescsOnFreelist) * cls.SBWords; st.Heap.LiveWords > held {
		t.Fatalf("%d heap words live, %d accounted to superblocks", st.Heap.LiveWords, held)
	}
}

// TestFewBlockClassesConcurrent: two handles allocate from every one of
// the classes and hand every other block to each other to free, so installs,
// last-credit pops, FULL/PARTIAL/EMPTY transitions and remote frees of
// two-block superblocks race — magazines off and at 8.
func TestFewBlockClassesConcurrent(t *testing.T) {
	classes := fewBlockClasses(t)
	for _, mag := range []int{0, 8} {
		cfg := testConfig()
		cfg.Processors = 2
		cfg.MagazineSize = mag
		a := New(cfg)
		const workers, rounds, window = 2, 4000, 6
		var wg sync.WaitGroup
		mail := [workers]chan mem.Ptr{}
		for w := range mail {
			mail[w] = make(chan mem.Ptr, rounds) // sized to the sends: a worker never blocks on its peer
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := a.Thread()
				defer th.Unregister()
				var held []mem.Ptr
				for i := 0; i < rounds; i++ {
					cls := classes[i%len(classes)]
					p, err := th.Malloc(cls.PayloadBytes - uint64(i%64))
					if err != nil {
						t.Error(err)
						return
					}
					a.heap.Set(p, uint64(p))
					if i%2 == 0 {
						mail[1-w] <- p
					} else {
						held = append(held, p)
					}
					if len(held) > window {
						th.Free(held[0])
						held = held[1:]
					}
					select {
					case q := <-mail[w]:
						if a.heap.Get(q) != uint64(q) {
							t.Errorf("block %v arrived with payload %#x", q, a.heap.Get(q))
						}
						th.Free(q)
					default:
					}
				}
				for _, p := range held {
					th.Free(p)
				}
			}(w)
		}
		wg.Wait()
		th := a.Thread()
		for w := range mail {
			close(mail[w])
			for q := range mail[w] {
				th.Free(q)
			}
		}
		th.Unregister()
		if err := a.CheckInvariants(0); err != nil {
			t.Fatalf("magazine=%d: %v", mag, err)
		}
		if st := a.Stats().Ops; st.Mallocs != st.Frees || st.Mallocs != workers*rounds {
			t.Fatalf("magazine=%d: mallocs %d, frees %d, want %d", mag, st.Mallocs, st.Frees, workers*rounds)
		}
	}
}
