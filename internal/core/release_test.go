package core

import (
	"fmt"
	"testing"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/sizeclass"
)

// releaseOutcome is what a superblock and its descriptor look like once
// some of its blocks have gone back.
type releaseOutcome struct {
	state, count uint64 // the anchor
	inSlot       bool   // the heap's Partial slot names the descriptor
	listed       int    // descriptors in the class's partial list
	liveDescs    uint64 // allocated and not on the freelist
	emptied      uint64 // superblocks returned to the OS layer
}

func (o releaseOutcome) String() string {
	return fmt.Sprintf("anchor %s count %d, in Partial slot %v, %d listed, %d descriptors live, %d superblocks emptied",
		atomicx.StateName(o.state), o.count, o.inSlot, o.listed, o.liveDescs, o.emptied)
}

// TestReleaseSingleAndGroupAgree is the differential for release: the
// same blocks of one FULL superblock go back one Free at a time
// (magazines off, m = 1) and as magazine flush groups (m > 1), in the
// same steps, and must leave the same anchor and the same descriptor
// fate — on the 8 B class, where a group is a fraction of the
// superblock, and on the classes of three and two blocks, where it can
// be all of it. The FULL→EMPTY rows are the transition one block cannot
// make: a group's descriptor sits in no Partial slot and no list, and
// only release's retire-directly branch takes it back.
func TestReleaseSingleAndGroupAgree(t *testing.T) {
	classes := append([]sizeclass.Class{sizeclass.All()[0]}, fewBlockClasses(t)...)
	for _, cls := range classes {
		n := int(cls.MaxCount)
		for _, row := range []struct {
			name  string
			steps []int // blocks returned by each step; a step ends with a flush
			state uint64
		}{
			{"full-to-partial", []int{n - 1}, atomicx.StatePartial},
			{"partial-to-empty", []int{1, n - 1}, atomicx.StateEmpty},
			{"full-to-empty", []int{n}, atomicx.StateEmpty},
		} {
			t.Run(fmt.Sprintf("%s/%s", className(cls), row.name), func(t *testing.T) {
				single := releaseSteps(t, cls, 0, row.steps)
				// A magazine one larger than the superblock never reaches
				// its watermark: every step is one flush group.
				group := releaseSteps(t, cls, n+1, row.steps)
				if single != group {
					t.Errorf("one Free at a time: %v\nas flush groups:     %v", single, group)
				}
				if single.state != row.state {
					t.Errorf("the superblock ended %s, want %s", atomicx.StateName(single.state), atomicx.StateName(row.state))
				}
				if row.state == atomicx.StateEmpty && (group.liveDescs != 0 || group.emptied != 1) {
					t.Errorf("an emptied superblock left %v", group)
				}
			})
		}
	}
}

// releaseSteps fills one superblock of cls to FULL, returns its blocks
// from a second handle in the given steps, and reports what is left.
func releaseSteps(t *testing.T, cls sizeclass.Class, magazine int, steps []int) releaseOutcome {
	t.Helper()
	cfg := testConfig()
	cfg.Processors = 1
	cfg.MagazineSize = magazine
	a := New(cfg)
	owner, freer := a.Thread(), a.Thread()
	ptrs := make([]mem.Ptr, cls.MaxCount)
	for i := range ptrs {
		p, err := owner.Malloc(cls.PayloadBytes)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[i] = p
	}
	descIdx := prefixDesc(a.heap.Load(ptrs[0] - 1))
	desc := a.desc(descIdx)
	if an := atomicx.UnpackAnchor(desc.Anchor.Load()); an.State != atomicx.StateFull {
		t.Fatalf("after %d mallocs the superblock is %s, want FULL", len(ptrs), atomicx.StateName(an.State))
	}
	live := int64(len(ptrs))
	for _, k := range steps {
		for _, p := range ptrs[:k] {
			if prefixDesc(a.heap.Load(p-1)) != descIdx {
				t.Fatalf("block %v belongs to another superblock", p)
			}
			freer.Free(p)
		}
		freer.FlushMagazines()
		ptrs = ptrs[k:]
		live -= int64(k)
		if err := a.CheckInvariants(live); err != nil {
			t.Fatal(err)
		}
	}
	an := atomicx.UnpackAnchor(desc.Anchor.Load())
	st := a.Stats()
	return releaseOutcome{
		state:     an.State,
		count:     an.Count,
		inSlot:    owner.findHeap(&a.classes[cls.Index]).Partial.Load() == descIdx,
		listed:    a.PartialListLens()[cls.Index],
		liveDescs: st.DescsAllocated - st.DescsOnFreelist,
		emptied:   st.Ops.EmptySBFreed,
	}
}
