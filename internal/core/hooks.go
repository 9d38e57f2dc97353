package core

// HookPoint identifies an instrumented step between atomic operations
// in the malloc/free paths. A Config.Hook installed at construction is
// invoked at each point; a hook that panics abandons the operation
// mid-flight, modeling a thread killed at that step (§1: "if any
// thread is delayed arbitrarily or even killed at any point, then any
// other thread using the allocator will be able to proceed").
//
// Because the algorithm is lock-free and holds no hidden ownership of
// shared state between atomic steps, abandoning at any of these points
// must never block other threads; it can only leak bounded memory (at
// most the thread's current reservations plus one superblock). The
// internal/sched package verifies both properties.
type HookPoint int

// Hook points, in rough operation order.
const (
	// HookMallocAfterReserve fires after the Active-word CAS reserved
	// a block, before the anchor pop. A kill leaks one reservation.
	HookMallocAfterReserve HookPoint = iota
	// HookMallocDuringPop fires on every iteration of the anchor-pop
	// retry loop, after reading the anchor and the next link but
	// before the CAS — the window in which the ABA scenario of §3.2.3
	// unfolds and the anchor tag must force a retry.
	HookMallocDuringPop
	// HookMallocAfterPop fires after the anchor CAS popped the block,
	// before malloc returns it. A kill leaks one block.
	HookMallocAfterPop
	// HookMallocBeforeUpdateActive fires in popLastCredit after taking
	// morecredits, before reinstalling the superblock: from
	// MallocFromActive and from the last pop of a magazine refill. A
	// kill leaks up to MAXCREDITS reservations and unlinks the
	// superblock; inside a refill it also leaks the blocks the batch
	// already popped, which reach the magazine only after the last pop.
	HookMallocBeforeUpdateActive
	// HookPartialAfterGet fires after removing a descriptor from the
	// Partial slot or list, before reserving. A kill leaks the
	// partial superblock.
	HookPartialAfterGet
	// HookPartialAfterReserve fires after the reserve CAS in
	// MallocFromPartial. A kill leaks the reservations.
	HookPartialAfterReserve
	// HookNewSBBeforeInstall fires after a fresh superblock is fully
	// initialized, before the Active install CAS. A kill leaks one
	// superblock and one descriptor.
	HookNewSBBeforeInstall
	// HookFreeBeforeCAS fires inside free's retry loops (the packed
	// fast loop and release called for one block) after the link store,
	// before the anchor CAS. A kill leaks the freed block.
	HookFreeBeforeCAS
	// HookFreeBeforePutPartial fires in release after a free or a
	// magazine flush group transitioned a FULL superblock, before
	// HeapPutPartial links it back. A kill strands the superblock until
	// its next free.
	HookFreeBeforePutPartial
	// HookFreeBeforeRetire fires in release after a free or a magazine
	// flush group emptied a superblock and returned it to the OS, before
	// the descriptor is retired. A kill leaks one descriptor.
	HookFreeBeforeRetire
	// HookMagRefillAfterReserve fires after a magazine refill's batch
	// reserve CAS on the Active word, before the anchor pops. A kill
	// leaks up to the batch's reservations.
	HookMagRefillAfterReserve
	// HookMagFlushBeforeSplice fires inside release's retry loop when a
	// magazine flush called it, after the group chain is linked but
	// before the anchor CAS. A kill leaks the group's blocks (already
	// removed from the magazine, not yet on the free list).
	HookMagFlushBeforeSplice
	// NumHookPoints is the number of hook points.
	NumHookPoints
)

var hookNames = [NumHookPoints]string{
	"malloc-after-reserve",
	"malloc-during-pop",
	"malloc-after-pop",
	"malloc-before-update-active",
	"partial-after-get",
	"partial-after-reserve",
	"newsb-before-install",
	"free-before-cas",
	"free-before-put-partial",
	"free-before-retire",
	"mag-refill-after-reserve",
	"mag-flush-before-splice",
}

func (p HookPoint) String() string {
	if p >= 0 && p < NumHookPoints {
		return hookNames[p]
	}
	return "invalid-hook-point"
}

// SetHook installs a hook on this thread handle. Every instrumented
// step of this thread's Malloc/Free invokes it; a hook that panics
// abandons the operation mid-flight (the algorithm holds no locks, so
// unwinding anywhere is safe for all other threads). Passing nil
// removes the hook.
func (t *Thread) SetHook(f func(HookPoint)) { t.hookFn = f }

// hook invokes the thread's hook, if any. The nil check is the only
// cost on unhooked threads; the body below must stay a single call so
// hook itself remains inlinable at every malloc/free call site.
func (t *Thread) hook(p HookPoint) {
	if t.hookFn != nil {
		t.hookSlow(p)
	}
}

// hookSlow is the hooked path. When telemetry is attached, each firing
// is also recorded in the flight recorder — so after a fault-injection
// kill (a hook that panics), the ring's tail shows exactly where the
// thread died and what it was doing.
func (t *Thread) hookSlow(p HookPoint) {
	t.rec.NoteHook(int(p))
	t.hookFn(p)
}
