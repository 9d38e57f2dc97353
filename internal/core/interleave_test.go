package core

// Deterministic interleaving tests: the thread hooks freeze a thread at
// a precise step of the paper's algorithms while another thread runs,
// then resume — turning the concurrency corner cases of §3.2.3 and
// §3.2.6 into reproducible unit tests instead of stress-luck.

import (
	"sync/atomic"
	"testing"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/sizeclass"
)

// staller freezes a thread's operation at the first occurrence of a
// hook point and hands control to the test until released.
type staller struct {
	point    HookPoint
	stalled  chan struct{}
	release  chan struct{}
	fired    bool
	skip     int // occurrences to let pass first
	disabled bool
}

func newStaller(th *Thread, p HookPoint, skip int) *staller {
	s := &staller{
		point:   p,
		stalled: make(chan struct{}),
		release: make(chan struct{}),
		skip:    skip,
	}
	th.SetHook(func(hp HookPoint) {
		if s.disabled || s.fired || hp != s.point {
			return
		}
		if s.skip > 0 {
			s.skip--
			return
		}
		s.fired = true
		close(s.stalled)
		<-s.release
	})
	return s
}

// TestUpdateActiveRace reproduces §3.2.3 "Updating Active Credits":
// thread A takes the last credit and stalls before UpdateActive;
// thread B finds Active NULL and installs a NEW superblock; A resumes,
// its install CAS fails, and it must return the credits and make its
// superblock PARTIAL.
func TestUpdateActiveRace(t *testing.T) {
	cfg := testConfig()
	cfg.Processors = 1
	cfg.MaxCredits = 8
	a := New(cfg)
	A := a.Thread()
	B := a.Thread()

	// Warm up: install an active superblock, then drain its credits so
	// that A's next malloc takes the last credit (UpdateActive path).
	var warm []mem.Ptr
	h0 := A.findHeap(&a.classes[0])
	for {
		act := atomicx.UnpackActive(h0.Active.Load())
		if !act.IsNull() && act.Credits == 0 {
			break
		}
		p, err := A.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		warm = append(warm, p)
	}
	st := newStaller(A, HookMallocBeforeUpdateActive, 0)
	done := make(chan mem.Ptr)
	go func() {
		p, err := A.Malloc(8)
		if err != nil {
			t.Error(err)
		}
		done <- p
	}()
	<-st.stalled
	// A is frozen holding morecredits with heap Active = NULL. B's
	// malloc must proceed by installing a brand-new superblock.
	pB, err := B.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if got := B.OpStats().FromNewSB; got != 1 {
		t.Fatalf("B allocated via FromNewSB=%d, want 1 (Active was NULL)", got)
	}
	close(st.release)
	pA := <-done
	A.SetHook(nil)

	// A's superblock must now be PARTIAL and linked via the Partial
	// slot or the size-class list.
	descA := a.desc(prefixDesc(a.heap.Load(pA - 1)))
	if st := atomicx.UnpackAnchor(descA.Anchor.Load()).State; st != atomicx.StatePartial {
		t.Errorf("A's superblock state = %s, want PARTIAL", atomicx.StateName(st))
	}
	h := A.findHeap(&a.classes[0])
	if h.Partial.Load() == 0 && a.classOf(h).partial.Len() == 0 {
		t.Error("A's superblock is linked nowhere")
	}
	for _, p := range warm {
		A.Free(p)
	}
	A.Free(pA)
	B.Free(pB)
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestNewSBInstallRace reproduces the MallocFromNewSB race (Figure 4
// line 13 failure): A initializes a fresh superblock and stalls before
// the install CAS; B installs its own; A must deallocate its superblock
// and retry, satisfying its request from B's superblock.
func TestNewSBInstallRace(t *testing.T) {
	cfg := testConfig()
	cfg.Processors = 1
	a := New(cfg)
	A := a.Thread()
	B := a.Thread()

	st := newStaller(A, HookNewSBBeforeInstall, 0)
	done := make(chan mem.Ptr)
	go func() {
		p, err := A.Malloc(8) // first malloc ever: must build a new SB
		if err != nil {
			t.Error(err)
		}
		done <- p
	}()
	<-st.stalled
	regionFreesBefore := a.heap.Stats().RegionFrees
	pB, err := B.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	close(st.release)
	pA := <-done
	A.SetHook(nil)

	if got := atomic.LoadUint64(&A.ops.newSBRaceLoss); got != 1 {
		t.Errorf("A race losses = %d, want 1", got)
	}
	if got := A.OpStats().FromActive; got != 1 {
		t.Errorf("A must retry via the active superblock, FromActive = %d", got)
	}
	if a.heap.Stats().RegionFrees != regionFreesBefore+1 {
		t.Error("A's losing superblock was not returned to the OS")
	}
	// Both blocks must come from B's (the installed) superblock.
	if prefixDesc(a.heap.Load(pA-1)) != prefixDesc(a.heap.Load(pB-1)) {
		t.Error("A and B blocks come from different superblocks")
	}
	A.Free(pA)
	B.Free(pB)
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestKeepNewSBOnRaceLossVariant exercises the alternative line-16
// policy: the loser keeps its superblock as PARTIAL and takes a block
// from it.
func TestKeepNewSBOnRaceLossVariant(t *testing.T) {
	cfg := testConfig()
	cfg.Processors = 1
	cfg.KeepNewSBOnRaceLoss = true
	a := New(cfg)
	A := a.Thread()
	B := a.Thread()

	st := newStaller(A, HookNewSBBeforeInstall, 0)
	done := make(chan mem.Ptr)
	go func() {
		p, err := A.Malloc(8)
		if err != nil {
			t.Error(err)
		}
		done <- p
	}()
	<-st.stalled
	pB, err := B.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	close(st.release)
	pA := <-done
	A.SetHook(nil)

	if atomic.LoadUint64(&A.ops.newSBRaceLoss) != 0 {
		t.Error("keep-variant should not count a race loss discard")
	}
	// A's block must come from its own (kept) superblock, now PARTIAL.
	descA := a.desc(prefixDesc(a.heap.Load(pA - 1)))
	descB := a.desc(prefixDesc(a.heap.Load(pB - 1)))
	if descA == descB {
		t.Fatal("A should have kept its own superblock")
	}
	if st := atomicx.UnpackAnchor(descA.Anchor.Load()).State; st != atomicx.StatePartial {
		t.Errorf("kept superblock state = %s, want PARTIAL", atomicx.StateName(st))
	}
	A.Free(pA)
	B.Free(pB)
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestABATagForcesRetry reproduces the §3.2.3 ABA scenario: thread X
// reads the anchor (head=A, next=B) and stalls before its CAS; other
// threads pop A, pop B, free C, free A — restoring avail=A but with a
// different successor. X's CAS must FAIL (tag changed) and retry;
// without the tag it would succeed and corrupt the free list.
func TestABATagForcesRetry(t *testing.T) {
	cfg := testConfig()
	cfg.Processors = 1
	cfg.MaxCredits = 64
	a := New(cfg)
	X := a.Thread()
	Y := a.Thread()

	// Warm up one superblock with a few blocks in flight.
	p0, err := X.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}

	popIterations := 0
	st := &staller{point: HookMallocDuringPop, stalled: make(chan struct{}), release: make(chan struct{})}
	X.SetHook(func(hp HookPoint) {
		if hp != HookMallocDuringPop {
			return
		}
		popIterations++
		if popIterations == 1 {
			close(st.stalled)
			<-st.release
		}
	})

	done := make(chan mem.Ptr)
	go func() {
		p, err := X.Malloc(8)
		if err != nil {
			t.Error(err)
		}
		done <- p
	}()
	<-st.stalled
	// X has read avail=A and next=B. Now perturb: Y pops A and B,
	// then frees them in an order that restores avail=A with a
	// different chain (free B then A: list becomes A -> B -> old).
	pA, err := Y.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	pB, err := Y.Malloc(8)
	if err != nil {
		t.Fatal(err)
	}
	Y.Free(pB)
	Y.Free(pA) // avail is A again, but the tag has advanced
	close(st.release)
	pX := <-done
	X.SetHook(nil)

	if popIterations < 2 {
		t.Fatalf("X's pop CAS succeeded despite ABA (iterations=%d); the tag failed", popIterations)
	}
	// No duplication: X's block must differ from any currently live.
	if pX == p0 {
		t.Error("duplicate allocation")
	}
	X.Free(pX)
	X.Free(p0)
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyDescInPartialList drives MallocFromPartial into its EMPTY
// branch (Figure 4 line 6): a superblock empties while its descriptor
// sits in the heap's structures, and the next partial-malloc must
// retire it and retry.
func TestEmptyDescInPartialList(t *testing.T) {
	cfg := testConfig()
	cfg.Processors = 1
	a := New(cfg)
	F := a.Thread() // freeing thread, will stall
	M := a.Thread() // mallocing thread

	cls, _ := sizeclass.For(2048) // 7 blocks per superblock
	// Fill superblock 1 completely (FULL), then start superblock 2.
	sb1 := make([]mem.Ptr, cls.MaxCount)
	for i := range sb1 {
		p, err := M.Malloc(2048)
		if err != nil {
			t.Fatal(err)
		}
		sb1[i] = p
	}
	p2, err := M.Malloc(2048) // forces a second superblock
	if err != nil {
		t.Fatal(err)
	}
	// Free one block of sb1: FULL -> PARTIAL, linked into Partial slot.
	F.Free(sb1[0])
	// Now free the rest; the final free makes it EMPTY. Stall F after
	// the region is freed but before RemoveEmptyDesc, so the EMPTY
	// descriptor is still reachable from the Partial slot.
	st := newStaller(F, HookFreeBeforeRetire, 0)
	done := make(chan struct{})
	go func() {
		for _, p := range sb1[1:] {
			F.Free(p)
		}
		close(done)
	}()
	<-st.stalled
	// M drains the active superblock then reaches for the partial
	// slot, finding the EMPTY descriptor: it must skip-and-retire it
	// and still satisfy the request.
	var got []mem.Ptr
	for atomic.LoadUint64(&M.ops.emptyPartialSkips) == 0 {
		p, err := M.Malloc(2048)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p)
		if len(got) > int(cls.MaxCount)*3 {
			t.Fatal("EMPTY descriptor never encountered")
		}
	}
	close(st.release)
	<-done
	F.SetHook(nil)
	for _, p := range got {
		M.Free(p)
	}
	M.Free(p2)
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestFreeBeforePutPartialStall verifies that a superblock transitioned
// FULL->PARTIAL but not yet linked (freer stalled before
// HeapPutPartial) does not block other threads — they simply allocate
// elsewhere — and becomes reachable after the freer resumes.
func TestFreeBeforePutPartialStall(t *testing.T) {
	cfg := testConfig()
	cfg.Processors = 1
	a := New(cfg)
	F := a.Thread()
	M := a.Thread()

	cls, _ := sizeclass.For(2048)
	blocks := make([]mem.Ptr, cls.MaxCount)
	for i := range blocks {
		p, err := M.Malloc(2048)
		if err != nil {
			t.Fatal(err)
		}
		blocks[i] = p
	}
	// Superblock is FULL (it is still the active superblock's desc but
	// with no credits). Free one block with a stall before linking.
	st := newStaller(F, HookFreeBeforePutPartial, 0)
	done := make(chan struct{})
	go func() {
		F.Free(blocks[0])
		close(done)
	}()
	<-st.stalled
	// M keeps allocating: must not block (new superblock path).
	p, err := M.Malloc(2048)
	if err != nil {
		t.Fatal(err)
	}
	close(st.release)
	<-done
	F.SetHook(nil)
	M.Free(p)
	for _, b := range blocks[1:] {
		M.Free(b)
	}
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveEmptyDescSlotABA: A empties a superblock whose descriptor
// sits in the heap's Partial slot and stalls before RemoveEmptyDesc. B's
// malloc takes the descriptor from the slot, retires it as EMPTY
// (MallocFromPartial line 6) and reuses it for a new superblock, which
// one free leaves PARTIAL in the same slot. A's slot CAS then matches
// the index of a live superblock: A must put it back, not retire it
// under B's block.
func TestRemoveEmptyDescSlotABA(t *testing.T) {
	cfg := testConfig()
	cfg.Processors = 1
	a := New(cfg)
	A := a.Thread()
	B := a.Thread()
	cls, _ := sizeclass.For(sizeclass.MaxPayloadBytes) // two blocks a superblock
	malloc := func(th *Thread) mem.Ptr {
		t.Helper()
		p, err := th.Malloc(cls.PayloadBytes)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p0, p1 := malloc(A), malloc(A) // carve, then the last credit: FULL
	x := prefixDesc(a.heap.Load(p0 - 1))
	A.Free(p0) // FULL -> PARTIAL: into the slot
	h := A.findHeap(&a.classes[cls.Index])
	if h.Partial.Load() != x {
		t.Fatalf("Partial slot holds %d, want descriptor %d", h.Partial.Load(), x)
	}

	st := newStaller(A, HookFreeBeforeRetire, 0)
	done := make(chan struct{})
	go func() {
		A.Free(p1) // EMPTY; stalls before RemoveEmptyDesc
		close(done)
	}()
	<-st.stalled
	q0 := malloc(B)
	if got := prefixDesc(a.heap.Load(q0 - 1)); got != x {
		t.Fatalf("B's new superblock has descriptor %d, want the retired %d", got, x)
	}
	q1 := malloc(B)
	B.Free(q0) // FULL -> PARTIAL: the reused descriptor back in the slot
	close(st.release)
	<-done
	A.SetHook(nil)

	if got := h.Partial.Load(); got != x {
		t.Fatalf("Partial slot holds %d after A's RemoveEmptyDesc, want the live descriptor %d", got, x)
	}
	if err := a.CheckInvariants(1); err != nil {
		t.Fatal(err)
	}
	B.Free(q1)
	if err := a.CheckInvariants(0); err != nil {
		t.Fatal(err)
	}
}
