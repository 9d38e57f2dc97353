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
// every block already carries the prefix it will be freed through — its
// descriptor and its class — and the links walk 1…MaxCount−1.
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
					if prefixIsLarge(w) || prefixDesc(w) != sb.Desc || prefixClass(w) != ci {
						t.Errorf("class %d block %d: word 0 = %#x does not decode to descriptor %d, class %d", ci, i, w, sb.Desc, ci)
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

// TestPrefixFieldsHoldEveryClass: every class of the table fits the
// prefix's class field, and a prefix of the largest descriptor index and
// any class keeps both fields apart under the largest link.
func TestPrefixFieldsHoldEveryClass(t *testing.T) {
	if n := sizeclass.NumClasses(); n > 1<<classBits {
		t.Fatalf("%d size classes, the prefix's class field holds %d", n, 1<<classBits)
	}
	const maxDesc = maxDescChunks<<descChunkLog2 - 1
	const maxLink = 1<<(64-linkShift) - 1
	for ci := range sizeclass.NumClasses() {
		for _, d := range []uint64{1, maxDesc} {
			for _, link := range []uint64{0, maxLink} {
				w := withLink(smallPrefix(d, ci), link)
				if prefixIsLarge(w) || prefixDesc(w) != d || prefixClass(w) != ci || prefixLink(w) != link {
					t.Errorf("prefix of descriptor %d, class %d, link %d decodes to large=%v, %d, %d, %d",
						d, ci, link, prefixIsLarge(w), prefixDesc(w), prefixClass(w), prefixLink(w))
				}
			}
		}
	}
}

// TestInvariantsCheckPrefixClass: CheckInvariants rejects a free-listed
// block and a magazine-cached block whose prefix names a class other
// than its descriptor's, and accepts them again once the prefix is put
// back.
func TestInvariantsCheckPrefixClass(t *testing.T) {
	cls, _ := sizeclass.For(100)
	for _, magazine := range []int{0, 8} {
		cfg := testConfig()
		cfg.MagazineSize = magazine
		a := New(cfg)
		th := a.Thread()
		p, err := th.Malloc(cls.PayloadBytes)
		if err != nil {
			t.Fatal(err)
		}
		q, err := th.Malloc(cls.PayloadBytes)
		if err != nil {
			t.Fatal(err)
		}
		th.Free(p) // free-listed without a magazine, cached with one
		w := a.heap.Load(p - 1)
		a.heap.Store(p-1, withLink(smallPrefix(prefixDesc(w), cls.Index+1), prefixLink(w)))
		if err := a.CheckInvariants(1); err == nil {
			t.Errorf("magazine %d: CheckInvariants accepts a block whose prefix names class %d in a class-%d superblock",
				magazine, cls.Index+1, cls.Index)
		}
		a.heap.Store(p-1, w)
		if err := a.CheckInvariants(1); err != nil {
			t.Fatalf("magazine %d: %v", magazine, err)
		}
		th.Free(q)
		th.Unregister()
	}
}
