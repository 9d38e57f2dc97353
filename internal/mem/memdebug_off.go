//go:build !memdebug

package mem

// memDebug gates extra assertions on the region-allocator API (build
// with -tags memdebug to enable). Off in normal builds so the checks
// compile away from the allocation fast paths.
const memDebug = false

// liveRegions is the memdebug build's live-region ledger; here it keeps
// nothing and its calls inline to nothing.
type liveRegions struct{}

func (*liveRegions) add(Ptr, uint64)    {}
func (*liveRegions) remove(Ptr, uint64) {}
