package report

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

var (
	cellGap     = regexp.MustCompile(`\s{2,}`)
	numericCell = regexp.MustCompile(`^(-|[0-9][0-9.]*(ns|µs|ms|s|%)?)$`)
)

// skeleton reduces rendered tables to what does not depend on the
// measurement: titles, column headers, variant names and notes. Cells
// are re-joined with " | ", numeric ones masked as "#", and the dashed
// rule (whose length follows the cell widths) dropped.
func skeleton(out string) string {
	var lines []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line != "" && strings.Trim(line, "-") == "" {
			continue
		}
		cells := cellGap.Split(strings.TrimRight(line, " "), -1)
		for i, c := range cells {
			if numericCell.MatchString(c) {
				cells[i] = "#"
			}
		}
		lines = append(lines, strings.Join(cells, " | "))
	}
	return strings.Join(lines, "\n")
}

// sweepGolden is the skeleton of what runMagazine, runArenas,
// runPoolStripes and runPoolAlgo printed at commit 47d5d12, and
// runAblations at c1287c8, with -threads 1,2 — the five hand-written
// loops knobSweep replaced.
var sweepGolden = map[string]string{
	"ablate": `Ablation: linux-scalability at 2 threads
========================================
variant | ops/s | maxlive B
baseline (credits=64, FIFO, free-on-race-loss, partial slot) | # | #
credits=1 (no batched reservations) | # | #
credits=8 | # | #
LIFO partial lists | # | #
keep new SB on race loss | # | #
no per-heap partial slot | # | #
4 partial slots per heap (§3.2.6 option) | # | #
hyperblock batching (§3.2.5) | # | #

Ablation: larson at 2 threads
=============================
variant | ops/s | maxlive B
baseline (credits=64, FIFO, free-on-race-loss, partial slot) | # | #
credits=1 (no batched reservations) | # | #
credits=8 | # | #
LIFO partial lists | # | #
keep new SB on race loss | # | #
no per-heap partial slot | # | #
4 partial slots per heap (§3.2.6 option) | # | #
hyperblock batching (§3.2.5) | # | #`,

	"magazine": `Magazine layer: larson at 2 threads
===================================
variant | ops/s | retries | retries/op | malloc p50 | hit rate | maxlive B
magazines off (paper-faithful) | # | # | # | # | # | #
magazines on (size=64) | # | # | # | # | # | #
note: same binary, same run; magazines batch Active/anchor CAS traffic into refills and flushes

Magazine layer: producer-consumer at 2 threads
==============================================
variant | ops/s | retries | retries/op | malloc p50 | hit rate | maxlive B
magazines off (paper-faithful) | # | # | # | # | # | #
magazines on (size=64) | # | # | # | # | # | #
note: same binary, same run; magazines batch Active/anchor CAS traffic into refills and flushes`,

	"arenas": `Region arenas: larson at 2 threads
==================================
variant | ops/s | region retries | region retries/op | steals | maxlive B
arenas=1 (global OS layer) | # | # | # | # | #
arenas=2 (per-processor) | # | # | # | # | #
note: region retries = failed CASes at the region-pop, region-push, and region-bump sites
note: steals = region allocations served from a sibling arena's partition

Region arenas: linux-scalability at 2 threads
=============================================
variant | ops/s | region retries | region retries/op | steals | maxlive B
arenas=1 (global OS layer) | # | # | # | # | #
arenas=2 (per-processor) | # | # | # | # | #
note: region retries = failed CASes at the region-pop, region-push, and region-bump sites
note: steals = region allocations served from a sibling arena's partition`,

	"poolstripes": `Descriptor-pool stripes: larson at 2 threads
============================================
variant | ops/s | desc retries | desc retries/op | migrations | maxlive B
stripes=1 (single DescAvail) | # | # | # | # | #
stripes=2 (per-processor) | # | # | # | # | #
note: desc retries = failed CASes at the desc-alloc and desc-retire freelist sites
note: migrations = whole-chain transfers from a sibling stripe to a dry one

Descriptor-pool stripes: threadtest at 2 threads
================================================
variant | ops/s | desc retries | desc retries/op | migrations | maxlive B
stripes=1 (single DescAvail) | # | # | # | # | #
stripes=2 (per-processor) | # | # | # | # | #
note: desc retries = failed CASes at the desc-alloc and desc-retire freelist sites
note: migrations = whole-chain transfers from a sibling stripe to a dry one`,

	"poolalgo": `Descriptor-pool backend: desc-churn at 2 threads
================================================
variant | ops/s | desc retries | desc retries/op | malloc p50 | malloc p99 | migrations | maxlive B
freelist (Figure 7, striped) | # | # | # | # | # | # | #
consttime (Blelloch-Wei batches) | # | # | # | # | # | # | #
note: desc retries = failed CASes at the desc-alloc and desc-retire sites (shared-stack CASes for consttime)
note: migrations = chain migrations (freelist) or batch handoffs via the shared stacks (consttime)

Descriptor-pool backend: larson at 2 threads
============================================
variant | ops/s | desc retries | desc retries/op | malloc p50 | malloc p99 | migrations | maxlive B
freelist (Figure 7, striped) | # | # | # | # | # | # | #
consttime (Blelloch-Wei batches) | # | # | # | # | # | # | #
note: desc retries = failed CASes at the desc-alloc and desc-retire sites (shared-stack CASes for consttime)
note: migrations = chain migrations (freelist) or batch handoffs via the shared stacks (consttime)`,
}

// TestKnobSweepSkeletons renders each knob sweep at tiny scale and
// compares everything but the measured numbers against the golden.
func TestKnobSweepSkeletons(t *testing.T) {
	for id, want := range sweepGolden {
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q is gone", id)
			}
			var buf bytes.Buffer
			if err := e.Run(RunConfig{Threads: []int{1, 2}, Scale: 0.0002}, &buf); err != nil {
				t.Fatal(err)
			}
			if got := skeleton(buf.String()); got != want {
				t.Errorf("skeleton changed\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}
