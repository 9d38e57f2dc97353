package telemetry

import _ "unsafe" // for go:linkname

// Now is the monotonic clock the timed operations read, in
// nanoseconds: runtime.nanotime, which time.Now reads too, along with
// the wall clock a latency does not need.
//
//go:linkname Now runtime.nanotime
func Now() int64
