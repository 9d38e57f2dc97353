package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// Span names: req is one sampled unit; the others are the calls the
// unit makes into the allocator's layers, recorded from sut.go.
const (
	spanReq     = iota // a sampled unit, or the last part of one
	spanReqPart        // an earlier part of a unit that finishes later
	spanMalloc
	spanFree
	spanPayload
	numSpanNames
)

var spanNames = [numSpanNames]string{"req", "req.part", "alloc.Malloc", "alloc.Free", "mem.payload"}

// maxSpans caps one worker's in-memory log; later units go unrecorded.
// tracedUnits is how many units per worker and round are traced, spread
// evenly over the round; with at most seven spans a unit the cap is
// not reached.
const (
	maxSpans    = 1 << 16
	tracedUnits = 1 << 13
)

type span struct {
	name       uint8
	parent     int32 // index in the same log, -1 for a req span
	req        uint32
	start, end int64
}

// spanLog is one worker's span buffer; only that worker touches it
// until the round is over.
type spanLog struct {
	thread int
	spans  []span
	cur    int32 // open req span, parent of what begins next
	seq    uint32
}

func newSpanLog(thread int) *spanLog {
	return &spanLog{thread: thread, spans: make([]span, 0, maxSpans), cur: -1}
}

// nextReq returns a request id no other worker of the round will use.
func (l *spanLog) nextReq() uint32 {
	l.seq++
	return uint32(l.thread)<<24 | l.seq&(1<<24-1)
}

// beginReq opens the span of one sampled unit (or of its next part);
// endAt and pauseAt close it with the timestamps the meter took anyway.
func (l *spanLog) beginReq(req uint32) int32 {
	l.cur = -1
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, span{name: spanReq, parent: -1, req: req})
		l.cur = int32(len(l.spans) - 1)
	}
	return l.cur
}

func (l *spanLog) begin(name uint8) int32 {
	if l.cur < 0 || len(l.spans) == maxSpans {
		return -1
	}
	l.spans = append(l.spans, span{name: name, parent: l.cur, req: l.spans[l.cur].req, start: now()})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) end(id int32) {
	if id >= 0 {
		l.spans[id].end = now()
	}
}

func (l *spanLog) endAt(id int32, start, end int64) {
	if id >= 0 {
		l.spans[id].start, l.spans[id].end = start, end
	}
	l.cur = -1
}

func (l *spanLog) pauseAt(id int32, start, end int64) (req uint32) {
	if id >= 0 {
		l.spans[id].name = spanReqPart
		req = l.spans[id].req
	}
	l.endAt(id, start, end)
	return req
}

// spanStats is what the traced pass derives from the logs. Durations
// have the timer overhead removed.
type spanStats struct {
	spans   int
	reqs    int
	malloc  hist
	free    hist
	ops     hist    // malloc and free together
	allocNS float64 // mean per req of time inside alloc.Malloc + alloc.Free
	memNS   float64 // mean per req of time inside mem.payload
	selfNS  float64 // mean per req of req time not covered by a child
	reqNS   float64 // mean req duration
}

func analyse(logs []*spanLog, overhead float64) spanStats {
	var st spanStats
	var alloc, payload, req float64
	parents := 0
	for _, l := range logs {
		for _, s := range l.spans {
			if s.end == 0 {
				continue
			}
			st.spans++
			d := float64(s.end-s.start) - overhead
			if d < 0 {
				d = 0
			}
			switch s.name {
			case spanReq:
				st.reqs++
				parents++
				req += d
			case spanReqPart:
				parents++
				req += d
			case spanMalloc:
				st.malloc.add(int64(d))
				st.ops.add(int64(d))
				alloc += d
			case spanFree:
				st.free.add(int64(d))
				st.ops.add(int64(d))
				alloc += d
			case spanPayload:
				payload += d
			}
		}
	}
	if st.reqs > 0 {
		n := float64(st.reqs)
		st.allocNS, st.memNS, st.reqNS = alloc/n, payload/n, req/n
		// A child span's two clock reads fall inside its parent; one of
		// them has already been taken off the child itself.
		children := float64(st.spans - parents)
		st.selfNS = (req - alloc - payload - 2*children*overhead) / n
		if st.selfNS < 0 {
			st.selfNS = 0
		}
	}
	return st
}

type spanJSON struct {
	Thread int    `json:"thread"`
	Req    uint32 `json:"req"`
	ID     int    `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type traceFile struct {
	Workload        string     `json:"workload"`
	Seed            int64      `json:"seed"`
	TimerOverheadNS float64    `json:"timer_overhead_ns"`
	Spans           []spanJSON `json:"spans"`
}

// writeTrace writes the round's spans to <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, seed int64, overhead float64, logs []*spanLog) (string, error) {
	tf := traceFile{Workload: workload, Seed: seed, TimerOverheadNS: overhead}
	for _, l := range logs {
		for i, s := range l.spans {
			tf.Spans = append(tf.Spans, spanJSON{
				Thread: l.thread, Req: s.req, ID: i, Parent: s.parent,
				Name: spanNames[s.name], Start: s.start, End: s.end,
			})
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
