//go:build memdebug

package mem

import (
	"fmt"
	"strings"
	"testing"
)

// mustPanic runs f and fails the test unless it panics with a message
// containing want.
func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); r == nil {
			t.Errorf("%s did not panic", what)
		} else if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Errorf("%s panicked with %q, want it to say %q", what, msg, want)
		}
	}()
	f()
}

// TestRegionLedger: the OS layer knows which regions it has handed out.
// Returning one twice, or with a size other than its own, panics before
// the bins change; so does handing out a region that overlaps a live one.
func TestRegionLedger(t *testing.T) {
	h := newTestHeap()
	p, words, err := h.AllocRegion(PageWords)
	if err != nil {
		t.Fatal(err)
	}
	h.FreeRegion(p, words)
	mustPanic(t, "a second FreeRegion", "no live region", func() { h.FreeRegion(p, words) })

	q, words, err := h.AllocRegion(PageWords)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "FreeRegion with twice the size", fmt.Sprintf("has %d words", words),
		func() { h.FreeRegion(q, 2*words) })
	h.FreeRegion(q, words) // the right size is still accepted

	r, words, err := h.AllocRegion(PageWords)
	if err != nil {
		t.Fatal(err)
	}
	h.pushRegion(r, words) // a live region in a bin, as a lost free would leave it
	mustPanic(t, "handing out a live region", "overlaps live region", func() { h.AllocRegion(PageWords) })
	if got := h.Stats().LiveWords; got != words {
		t.Errorf("live words %d, want %d: only r is live", got, words)
	}
}
