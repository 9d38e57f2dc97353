package core

import (
	"fmt"
	"io"

	"repro/internal/atomicx"
)

// DumpState writes a human-readable snapshot of the allocator's
// structures: every processor heap's Active/Partial words and every
// initialized descriptor's anchor. Intended for quiescent debugging
// (a racing snapshot is still safe, just possibly inconsistent).
func (a *Allocator) DumpState(w io.Writer) {
	fmt.Fprintf(w, "allocator: %d classes x %d processor heaps, MAXCREDITS=%d\n",
		len(a.classes), a.procs, a.maxCredits)
	for ci := range a.classes {
		sc := &a.classes[ci]
		interesting := sc.partial.Len() > 0
		if !interesting {
			for pi := range sc.heaps {
				h := &sc.heaps[pi]
				if h.Active.Load() != 0 || h.Partial.Load() != 0 {
					interesting = true
					break
				}
			}
		}
		if !interesting {
			continue
		}
		fmt.Fprintf(w, "class %d (payload %d B, %d blocks/SB):\n",
			ci, sc.class.PayloadBytes, sc.class.MaxCount)
		for pi := range sc.heaps {
			h := &sc.heaps[pi]
			act := atomicx.UnpackActive(h.Active.Load())
			part := h.Partial.Load()
			if act.IsNull() && part == 0 {
				continue
			}
			fmt.Fprintf(w, "  heap %d:", pi)
			if !act.IsNull() {
				fmt.Fprintf(w, " Active=desc%d credits=%d", act.Desc, act.Credits)
			}
			if part != 0 {
				fmt.Fprintf(w, " Partial=desc%d", part)
			}
			fmt.Fprintln(w)
		}
		if n := sc.partial.Len(); n > 0 {
			fmt.Fprintf(w, "  partial list: ~%d descriptors\n", n)
		}
	}

	limit := a.descs.Limit()
	var counts [4]int
	live := 0
	for idx := uint64(descChunk); idx < limit; idx++ {
		d := a.desc(idx)
		if d.MaxCount() == 0 {
			continue
		}
		an := atomicx.UnpackAnchor(d.Anchor.Load())
		counts[an.State&3]++
		if an.State != atomicx.StateEmpty {
			live++
			fmt.Fprintf(w, "desc %d: sb=%v class=%d state=%s avail=%d count=%d tag=%d heap=%d\n",
				idx, d.SB(), d.ClassIndex(), atomicx.StateName(an.State),
				an.Avail, an.Count, an.Tag, d.HeapID())
		}
	}
	fmt.Fprintf(w, "descriptors: %d live superblocks; states ACTIVE=%d FULL=%d PARTIAL=%d EMPTY(retired)=%d\n",
		live, counts[atomicx.StateActive], counts[atomicx.StateFull],
		counts[atomicx.StatePartial], counts[atomicx.StateEmpty])
	fmt.Fprintf(w, "desc pool: %s backend, %d stripes, free per stripe %v\n",
		a.descs.Algo(), a.descs.Stripes(), a.descs.StripeFree())
	hs := a.heap.Stats()
	fmt.Fprintf(w, "heap: reserved=%d KiB live=%d KiB max-live=%d KiB regions %d/%d alloc/free\n",
		hs.ReservedWords*8/1024, hs.LiveWords*8/1024, hs.MaxLiveWords*8/1024,
		hs.RegionAllocs, hs.RegionFrees)
}
