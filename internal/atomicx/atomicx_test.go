package atomicx

import (
	"testing"
	"testing/quick"
)

func TestAnchorPackRoundTrip(t *testing.T) {
	cases := []Anchor{
		{},
		{Avail: 1, Count: 2, State: StateActive, Tag: 3},
		{Avail: AnchorAvailMask, Count: AnchorCountMask, State: StateEmpty, Tag: AnchorTagMask},
		{Avail: 512, Count: 511, State: StatePartial, Tag: 1 << 40},
	}
	for _, a := range cases {
		got := UnpackAnchor(a.Pack())
		if got != a {
			t.Errorf("round trip: packed %+v, unpacked %+v", a, got)
		}
	}
}

func TestAnchorPackProperty(t *testing.T) {
	f := func(avail, count uint16, state uint8, tag uint64) bool {
		a := Anchor{
			Avail: uint64(avail) & AnchorAvailMask,
			Count: uint64(count) & AnchorCountMask,
			State: uint64(state) & AnchorStateMask,
			Tag:   tag & AnchorTagMask,
		}
		return UnpackAnchor(a.Pack()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAnchorFieldIsolation(t *testing.T) {
	// Mutating one field must not disturb the others.
	base := Anchor{Avail: 37, Count: 100, State: StatePartial, Tag: 123456789}
	mutants := []Anchor{
		{Avail: 1023, Count: 100, State: StatePartial, Tag: 123456789},
		{Avail: 37, Count: 0, State: StatePartial, Tag: 123456789},
		{Avail: 37, Count: 100, State: StateEmpty, Tag: 123456789},
		{Avail: 37, Count: 100, State: StatePartial, Tag: 123456790},
	}
	for i, m := range mutants {
		if UnpackAnchor(m.Pack()) != m {
			t.Errorf("mutant %d did not round trip", i)
		}
		if m.Pack() == base.Pack() {
			t.Errorf("mutant %d collides with base", i)
		}
	}
}

func TestAnchorAvailWrapsAtFieldWidth(t *testing.T) {
	// Footnote 1 of the paper: the avail stored when popping the last
	// block may be garbage; Pack must mask rather than corrupt
	// neighboring fields.
	a := Anchor{Avail: MaxBlocksPerSuperblock + 5, Count: 3, State: StateActive, Tag: 7}
	got := UnpackAnchor(a.Pack())
	if got.Count != 3 || got.State != StateActive || got.Tag != 7 {
		t.Errorf("avail overflow corrupted neighbors: %+v", got)
	}
	if got.Avail != 5 {
		t.Errorf("avail = %d, want wrapped 5", got.Avail)
	}
}

func TestActivePackRoundTrip(t *testing.T) {
	cases := []Active{
		{},
		{Desc: 1, Credits: 0},
		{Desc: 1 << 57, Credits: ActiveCreditsMask},
		{Desc: 12345, Credits: 63},
	}
	for _, a := range cases {
		if got := UnpackActive(a.Pack()); got != a {
			t.Errorf("round trip: packed %+v, unpacked %+v", a, got)
		}
	}
}

func TestActiveNull(t *testing.T) {
	var a Active
	if !a.IsNull() {
		t.Error("zero Active should be NULL")
	}
	if a.Pack() != 0 {
		t.Error("NULL Active must pack to 0")
	}
	b := Active{Desc: 1}
	if b.IsNull() {
		t.Error("Active with Desc=1 should not be NULL")
	}
	if b.Pack() == 0 {
		t.Error("non-NULL Active must not pack to 0")
	}
}

func TestActivePackProperty(t *testing.T) {
	f := func(desc uint64, credits uint8) bool {
		a := Active{Desc: desc & (1<<ActivePtrBits - 1), Credits: uint64(credits) & ActiveCreditsMask}
		return UnpackActive(a.Pack()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTaggedPackRoundTrip(t *testing.T) {
	f := func(idx uint64, tag uint32) bool {
		tt := Tagged{Idx: idx & TaggedIdxMask, Tag: uint64(tag) & TaggedTagMask}
		return UnpackTagged(tt.Pack()) == tt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTaggedTagDistinguishesABA(t *testing.T) {
	// Same index, different tag must produce different words: the
	// whole point of the tag.
	a := Tagged{Idx: 42, Tag: 1}.Pack()
	b := Tagged{Idx: 42, Tag: 2}.Pack()
	if a == b {
		t.Error("tags did not distinguish identical indices")
	}
}

func TestStateName(t *testing.T) {
	want := map[uint64]string{
		StateActive:  "ACTIVE",
		StateFull:    "FULL",
		StatePartial: "PARTIAL",
		StateEmpty:   "EMPTY",
		17:           "INVALID",
	}
	for s, name := range want {
		if got := StateName(s); got != name {
			t.Errorf("StateName(%d) = %q, want %q", s, got, name)
		}
	}
}

func TestAnchorLayoutMatchesPaper(t *testing.T) {
	// The paper's Figure 3 bit budget: 10+10+2+42 = 64.
	if AnchorAvailBits+AnchorCountBits+AnchorStateBits+AnchorTagBits != 64 {
		t.Error("anchor fields do not fill 64 bits")
	}
	if ActivePtrBits+ActiveCreditsBits != 64 {
		t.Error("active fields do not fill 64 bits")
	}
	if TaggedIdxBits+TaggedTagBits != 64 {
		t.Error("tagged fields do not fill 64 bits")
	}
	if MaxCredits != 64 {
		t.Errorf("MaxCredits = %d, want 64", MaxCredits)
	}
}
