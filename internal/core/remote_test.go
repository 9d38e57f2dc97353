package core

import (
	"testing"

	"repro/internal/atomicx"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// remoteSetup builds two processor heaps without magazines: owner, on
// heap 0, holds every block of its Active 512-byte superblock but the
// one its last credit reserves; other, on heap 1, frees into it.
func remoteSetup(t *testing.T) (a *Allocator, owner, other *Thread, held []mem.Ptr, desc *Descriptor) {
	t.Helper()
	cfg := testConfig()
	cfg.Processors = 2
	cfg.Telemetry = NewRecorder(telemetry.Config{})
	a = New(cfg)
	owner, other = a.Thread(), a.Thread()
	sc, _ := a.classFor(512)
	h := owner.findHeap(sc)
	for {
		p, err := owner.Malloc(512)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, p)
		act := atomicx.UnpackActive(h.Active.Load())
		if !act.IsNull() && act.Credits == 0 && atomicx.UnpackAnchor(a.desc(act.Desc).Anchor.Load()).Count == 0 {
			return a, owner, other, held, a.desc(act.Desc)
		}
	}
}

// TestRemoteFreeMeetsLastCreditClose races a free by another heap
// against the owner's last-credit close, with the owner's malloc run
// from inside the free's hook. Whichever comes first, the block ends on
// the stack the closer splices, on the anchor, or on the stack reopened
// for the next credits — never lost, and the block counts stay exact.
func TestRemoteFreeMeetsLastCreditClose(t *testing.T) {
	stackCount := func(d *Descriptor) uint64 { return d.remote.Load() & remoteCountMask }
	freeFastRetries := func(a *Allocator) uint64 {
		return a.Telemetry().Snapshot().Retries[telemetry.SiteFreeFast.String()]
	}

	t.Run("pushed-then-spliced", func(t *testing.T) {
		a, owner, other, held, desc := remoteSetup(t)
		other.Free(held[0])
		if n := stackCount(desc); n != 1 || other.OpStats().RemoteFrees != 1 {
			t.Fatalf("after one remote free the stack holds %d, RemoteFrees %d; want 1, 1", n, other.OpStats().RemoteFrees)
		}
		if err := a.CheckInvariants(int64(len(held) - 1)); err != nil {
			t.Fatal(err)
		}
		last, err := owner.Malloc(512) // the last credit: close, splice, reinstall
		if err != nil {
			t.Fatal(err)
		}
		if owner.OpStats().RemoteSplices != 1 {
			t.Errorf("RemoteSplices = %d, want 1", owner.OpStats().RemoteSplices)
		}
		if w := desc.remote.Load(); w != remoteOpen {
			t.Errorf("remote word %#x after the splice and reinstall, want open and empty", w)
		}
		if err := a.CheckInvariants(int64(len(held))); err != nil {
			t.Fatal(err)
		}
		for _, p := range append(held[1:], last) {
			owner.Free(p)
		}
		if err := a.CheckInvariants(0); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("push-meets-close-to-full", func(t *testing.T) {
		a, owner, other, held, desc := remoteSetup(t)
		var last mem.Ptr
		other.SetHook(func(p HookPoint) {
			if p == HookFreeBeforePush && last.IsNil() {
				var err error
				if last, err = owner.Malloc(512); err != nil { // closes the empty stack: FULL
					t.Error(err)
				}
			}
		})
		other.Free(held[0])
		other.SetHook(nil)
		an := atomicx.UnpackAnchor(desc.Anchor.Load())
		if desc.remote.Load() != 0 || an.State != atomicx.StatePartial || an.Count != 1 {
			t.Errorf("remote word %#x, anchor %s count %d; want closed, PARTIAL, 1 (the free took Figure 6)",
				desc.remote.Load(), atomicx.StateName(an.State), an.Count)
		}
		if other.OpStats().RemoteFrees != 0 || freeFastRetries(a) < 1 {
			t.Errorf("RemoteFrees %d, %s retries %d; want 0 and >= 1", other.OpStats().RemoteFrees, telemetry.SiteFreeFast, freeFastRetries(a))
		}
		if err := a.CheckInvariants(int64(len(held))); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("push-meets-splice-and-reopen", func(t *testing.T) {
		a, owner, other, held, desc := remoteSetup(t)
		other.Free(held[0])
		var last mem.Ptr
		other.SetHook(func(p HookPoint) {
			if p == HookFreeBeforePush && last.IsNil() {
				var err error
				if last, err = owner.Malloc(512); err != nil { // splices held[0], reopens
					t.Error(err)
				}
			}
		})
		other.Free(held[1])
		other.SetHook(nil)
		if n := stackCount(desc); n != 1 || owner.OpStats().RemoteSplices != 1 || other.OpStats().RemoteFrees != 2 {
			t.Errorf("stack holds %d, RemoteSplices %d, RemoteFrees %d; want 1, 1, 2",
				n, owner.OpStats().RemoteSplices, other.OpStats().RemoteFrees)
		}
		if freeFastRetries(a) < 1 {
			t.Errorf("the push that met the close left %s at %d retries", telemetry.SiteFreeFast, freeFastRetries(a))
		}
		if err := a.CheckInvariants(int64(len(held) - 1)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOwnHeapFreeTakesFigure6: a free into a superblock of the freeing
// thread's own heap never touches the remote stack.
func TestOwnHeapFreeTakesFigure6(t *testing.T) {
	a, owner, _, held, desc := remoteSetup(t)
	owner.Free(held[0])
	if desc.remote.Load() != remoteOpen || owner.OpStats().RemoteFrees != 0 {
		t.Errorf("own-heap free: remote word %#x, RemoteFrees %d; want open and empty, 0", desc.remote.Load(), owner.OpStats().RemoteFrees)
	}
	if an := atomicx.UnpackAnchor(desc.Anchor.Load()); an.Count != 1 {
		t.Errorf("anchor count %d after an own-heap free, want 1", an.Count)
	}
	if err := a.CheckInvariants(int64(len(held) - 1)); err != nil {
		t.Fatal(err)
	}
}
