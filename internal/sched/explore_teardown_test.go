package sched

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/alloc"
	"repro/internal/core"
	"repro/internal/mem"
)

func exploreAllocator() Target {
	return lockFree(core.Config{
		Processors: 1,
		HeapConfig: mem.Config{SegmentWordsLog2: 14, TotalWordsLog2: 22},
	}, false)
}

// TestExploreScriptPanicPropagates pins the teardown contract: a script
// that panics fails the exploration with the panic value as the error
// instead of crashing the process, and sibling scripted threads blocked
// on the director are released — no goroutines leak.
func TestExploreScriptPanicPropagates(t *testing.T) {
	before := runtime.NumGoroutine()
	_, err := Explore(ExploreConfig{
		NewTarget: exploreAllocator,
		Scripts: []Script{
			func(th alloc.Thread) {
				p, e := th.Malloc(64)
				if e != nil {
					panic(e)
				}
				th.Free(p)
				panic("deliberate script failure")
			},
			func(th alloc.Thread) {
				p, e := th.Malloc(64)
				if e != nil {
					panic(e)
				}
				th.Free(p)
			},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "deliberate script failure") {
		t.Fatalf("Explore error = %v, want the script panic", err)
	}
	// The sibling thread must have been unwound and exited; allow the
	// runtime a moment to reap the goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after failed exploration",
				before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExploreCheckFailureNoLeak covers the other early-error path: a
// failing terminal Check must not strand goroutines either (threads are
// already done there, but the regression guards the accounting).
func TestExploreCheckFailureNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	_, err := Explore(ExploreConfig{
		NewTarget: exploreAllocator,
		Scripts: []Script{
			func(th alloc.Thread) {
				p, _ := th.Malloc(16)
				th.Free(p)
			},
		},
		Check: func(Target) error {
			return errTestCheck
		},
	})
	if err == nil || !strings.Contains(err.Error(), "check failed on purpose") {
		t.Fatalf("Explore error = %v, want the check failure", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after failing Check: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

var errTestCheck = errString("check failed on purpose")

type errString string

func (e errString) Error() string { return string(e) }
