package telemetry

import "sync/atomic"

// EventKind classifies a flight-recorder event.
type EventKind uint8

const (
	// EvMalloc is a completed Malloc (Class -1 for a large block).
	EvMalloc EventKind = iota
	// EvFree is a completed Free.
	EvFree
	// EvNewSB is a fresh superblock installed by MallocFromNewSB.
	EvNewSB
	// EvRaceLoss is a fresh superblock discarded after losing the
	// Active install race.
	EvRaceLoss
	// EvSBRetire is a superblock emptied by Free and returned to the
	// OS layer.
	EvSBRetire
	// EvHook is a fault-injection hook firing (Hook holds the
	// core.HookPoint).
	EvHook
	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	"malloc", "free", "new-sb", "race-loss", "sb-retire", "hook",
}

func (k EventKind) String() string {
	if k < numEventKinds {
		return eventKindNames[k]
	}
	return "invalid-event"
}

// Event is one flight-recorder record.
type Event struct {
	// Seq is the global event sequence number (1-based, monotone).
	Seq uint64 `json:"seq"`
	// Kind is the event kind.
	Kind EventKind `json:"kind"`
	// KindName is Kind's name (filled on read, for JSON consumers).
	KindName string `json:"kindName,omitempty"`
	// Class is the size-class index, or -1 for large blocks / n.a.
	Class int `json:"class"`
	// Hook is the hook point for EvHook events, -1 otherwise.
	Hook int `json:"hook"`
	// Thread is the recording thread's id (mod 2^24).
	Thread uint64 `json:"thread"`
	// Retries is the CAS retries accumulated in the surrounding
	// operation up to this event (clamped to 2^16-1).
	Retries uint64 `json:"retries"`
	// Ptr is the block or superblock address involved, if any.
	Ptr uint64 `json:"ptr"`
	// Nanos is the operation latency for EvMalloc/EvFree, else 0.
	Nanos uint64 `json:"nanos"`
}

// ringSlot is a seqlock slot: seq is 0 while a write is in flight and
// the event's sequence number once published; a/b/c hold the packed
// event.
type ringSlot struct {
	seq atomic.Uint64
	a   atomic.Uint64 // kind:8 | class+1:8 | hook+1:8 | retries:16 | thread:24
	b   atomic.Uint64 // ptr
	c   atomic.Uint64 // nanos
}

// Ring is the flight recorder: a fixed-size lock-free ring buffer of
// recent events. Writers claim a slot with one atomic fetch-add (the
// same atomic-bump discipline as the allocator's free stacks) and are
// wait-free; readers drop slots whose sequence word changed under
// them. A reader can therefore never block a writer and vice versa.
// The slots are allocated a page at a time, by the first writer to
// reach the page: a recorder that has logged one event holds one page.
//
// Validation is best-effort in one rare case: if a writer wraps the
// entire ring while another writer is mid-publish on the same slot,
// a torn slot could carry a stale sequence number. The recorder is a
// diagnostic aid, not a ledger; counters and histograms are exact.
type Ring struct {
	mask   uint64
	cursor atomic.Uint64
	pages  []atomic.Pointer[ringPage]
}

// ringPage is the ring's unit of allocation, 4 KiB of slots.
type ringPage [pageSlots]ringSlot

const pageSlots = 128

func (r *Ring) init(size int) {
	n := 1
	for n < size {
		n <<= 1
	}
	r.mask = uint64(n - 1)
	r.pages = make([]atomic.Pointer[ringPage], (n+pageSlots-1)/pageSlots)
}

// slot returns slot i's address, or nil while its page is unwritten.
func (r *Ring) slot(i uint64) *ringSlot {
	if pg := r.pages[i/pageSlots].Load(); pg != nil {
		return &pg[i%pageSlots]
	}
	return nil
}

// Cap returns the ring capacity in events.
func (r *Ring) Cap() int { return int(r.mask + 1) }

// Recorded returns the total number of events ever recorded.
func (r *Ring) Recorded() uint64 { return r.cursor.Load() }

func packA(ev Event) uint64 {
	class := uint64(0) // 0 encodes "large / n.a."
	if ev.Class >= 0 && ev.Class < 255 {
		class = uint64(ev.Class) + 1
	}
	hook := uint64(0)
	if ev.Hook >= 0 && ev.Hook < 255 {
		hook = uint64(ev.Hook) + 1
	}
	retries := ev.Retries
	if retries > 0xffff {
		retries = 0xffff
	}
	return uint64(ev.Kind) | class<<8 | hook<<16 | retries<<24 | (ev.Thread&0xffffff)<<40
}

func unpackA(a uint64, ev *Event) {
	ev.Kind = EventKind(a & 0xff)
	ev.KindName = ev.Kind.String()
	ev.Class = int(a>>8&0xff) - 1
	ev.Hook = int(a>>16&0xff) - 1
	ev.Retries = a >> 24 & 0xffff
	ev.Thread = a >> 40 & 0xffffff
}

// Record appends an event. Wait-free.
func (r *Ring) Record(ev Event) {
	seq := r.cursor.Add(1)
	i := (seq - 1) & r.mask
	s := r.slot(i)
	if s == nil {
		// The page's first writer: one that loses the install race
		// writes into the winner's page.
		r.pages[i/pageSlots].CompareAndSwap(nil, new(ringPage))
		s = r.slot(i)
	}
	s.seq.Store(0) // invalidate for readers
	s.a.Store(packA(ev))
	s.b.Store(ev.Ptr)
	s.c.Store(ev.Nanos)
	s.seq.Store(seq) // publish
}

// Events returns up to max recent events in sequence order (oldest
// first). Slots overwritten or mid-write during the scan are skipped.
func (r *Ring) Events(max int) []Event {
	cur := r.cursor.Load()
	if max <= 0 || max > r.Cap() {
		max = r.Cap()
	}
	lo := uint64(1)
	if cur > uint64(max) {
		lo = cur - uint64(max) + 1
	}
	out := make([]Event, 0, cur-lo+1)
	for seq := lo; seq <= cur; seq++ {
		s := r.slot((seq - 1) & r.mask)
		if s == nil || s.seq.Load() != seq {
			continue
		}
		var ev Event
		unpackA(s.a.Load(), &ev)
		ev.Ptr = s.b.Load()
		ev.Nanos = s.c.Load()
		if s.seq.Load() != seq {
			continue // torn read: overwritten while loading
		}
		ev.Seq = seq
		out = append(out, ev)
	}
	return out
}
