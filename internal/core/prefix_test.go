package core

import (
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/sizeclass"
)

// TestCarveDecodes reads a fresh superblock at the last point before any
// malloc is served from it (the hook between the carve loop's fence and
// the install CAS), for the smallest, a middle and the largest class:
// every block already carries the prefix it will be freed through, and
// the links walk 1…MaxCount−1.
func TestCarveDecodes(t *testing.T) {
	n := sizeclass.NumClasses()
	for _, ci := range []int{0, n / 2, n - 1} {
		cls := sizeclass.ByIndex(ci)
		cfg := testConfig()
		cfg.Processors = 1
		a := New(cfg)
		th := a.Thread()
		carved := 0
		th.SetHook(func(p HookPoint) {
			if p != HookNewSBBeforeInstall {
				return
			}
			a.WalkSuperblocks(func(sb SuperblockInfo) bool {
				carved++
				base := a.desc(sb.Desc).SB()
				for i := uint64(0); i < cls.MaxCount; i++ {
					w := a.heap.Load(base.Add(i * cls.BlockWords))
					if prefixIsLarge(w) || prefixDesc(w) != sb.Desc {
						t.Errorf("class %d block %d: word 0 = %#x does not decode to descriptor %d", ci, i, w, sb.Desc)
					}
					if i < cls.MaxCount-1 && prefixLink(w) != i+1 {
						t.Errorf("class %d block %d links to %d, want %d", ci, i, prefixLink(w), i+1)
					}
				}
				return true
			})
		})
		p, err := th.Malloc(cls.PayloadBytes)
		if err != nil {
			t.Fatal(err)
		}
		if carved != 1 {
			t.Fatalf("class %d: saw %d carved superblocks before the first malloc returned, want 1", ci, carved)
		}
		th.SetHook(nil)
		th.Free(p)
		if err := a.CheckInvariants(0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMallocWritesNoHeapWord pins ALGORITHM.md deviation 8: serving a
// block from the Active superblock, from a PARTIAL one, or by a magazine
// refill leaves every word of the superblock as it was — the prefix was
// written when the superblock was carved and kept by every free since.
func TestMallocWritesNoHeapWord(t *testing.T) {
	cls, _ := sizeclass.For(2048) // few blocks a superblock: quick to fill
	newThread := func(magazine int) (*Allocator, *Thread) {
		cfg := testConfig()
		cfg.Processors = 1
		cfg.MagazineSize = magazine
		a := New(cfg)
		return a, a.Thread()
	}
	malloc := func(th *Thread) mem.Ptr {
		t.Helper()
		p, err := th.Malloc(cls.PayloadBytes)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// unwritten runs one malloc and compares the superblock of block p
	// word for word around it.
	unwritten := func(name string, a *Allocator, th *Thread, p mem.Ptr) {
		t.Helper()
		words := a.heap.Words(a.desc(prefixDesc(a.heap.Load(p-1))).SB(), cls.SBWords)
		before := slices.Clone(words)
		malloc(th)
		for i := range words {
			if words[i] != before[i] {
				t.Errorf("%s: malloc changed superblock word %d from %#x to %#x", name, i, before[i], words[i])
			}
		}
	}

	a, th := newThread(0)
	p := malloc(th) // carves the superblock and installs it as Active
	unwritten("from Active", a, th, p)
	if got := th.OpStats().FromActive; got != 1 {
		t.Fatalf("second malloc was not served from Active (fromActive = %d)", got)
	}

	a, th = newThread(0)
	ptrs := make([]mem.Ptr, cls.MaxCount)
	for i := range ptrs {
		ptrs[i] = malloc(th) // the last one leaves the superblock FULL and Active NULL
	}
	th.Free(ptrs[0]) // FULL -> PARTIAL, into the heap's Partial slot
	unwritten("from Partial", a, th, ptrs[1])
	if got := th.OpStats().FromPartial; got != 1 {
		t.Fatalf("malloc after the free was not served from the partial superblock (fromPartial = %d)", got)
	}

	a, th = newThread(4)
	p = malloc(th) // magazine miss, Active NULL: carves
	unwritten("magazine refill", a, th, p)
	if n, got := th.mags[cls.Index].n, th.OpStats().FromActive; got != 1 || n == 0 {
		t.Fatalf("second malloc was not a batched refill (fromActive = %d, %d blocks cached)", got, n)
	}
}
