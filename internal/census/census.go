// Package census builds consistent point-in-time inventories of an
// allocator's memory: where every superblock, block, and region is, how
// much of the footprint is fragmentation (internal and external), which
// call sites hold the live bytes, and how old they are. It answers the
// question the telemetry layer (contention and latency) does not ask:
// "where is the memory?"
//
// A Census is a list of parts, one per layer of the allocator's stack,
// top-down: the backend's own structures where a walker exists (the
// lock-free allocator's superblocks, descriptor pool and allocation
// sampler; the buddy forest) above the OS layer (mem.Heap: bump
// pointer, region bins), which every backend has. A part is plain data:
// JSON by its struct tags, text by its WriteText; nothing outside this
// package formats a part's numbers.
//
// Every part is assembled entirely from racy-consistent atomic reads —
// the core walk primitives (Allocator.WalkSuperblocks, WalkActive,
// MagazineCounts, PartialListLens), the mem bin counters
// (Heap.BinCensus), the descriptor-pool free counts, and the
// telemetry allocation sampler — so a walk is safe (and race-detector-
// clean) while malloc/free churn, and a stalled or killed thread
// anywhere in the allocator cannot block it, nor it any allocator
// operation. The price is bounded inconsistency: each value is exact at
// some instant during the walk, but cross-structure identities
// (used+free+reserved == capacity) can be off by in-flight operations;
// they are exact at quiescence.
//
// Fragmentation accounting:
//
//   - Internal fragmentation (per class) is estimated from sampled
//     allocations: each sample carries its requested size, so waste =
//     classPayload − requested summed over live samples, expressed as
//     a ratio of the sampled class bytes. Carve waste — the tail of a
//     superblock that block carving cannot use — is exact, not
//     sampled.
//
//   - External fragmentation is the free-region mass parked in the OS
//     layer's bins as a fraction of its reserved address space: memory
//     the OS layer holds but no superblock or large block occupies.
//
//   - Live-block age buckets come from the same sampler: allocations
//     are sampled uniformly at rate 1/N, so surviving samples of age A
//     estimate the population of live blocks allocated A ago; mass in
//     old buckets that keeps growing is the leak signature.
package census

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/atomicx"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sizeclass"
	"repro/internal/telemetry"
)

// Part is one layer's share of a census: plain data, rendered as JSON
// by its struct tags and as text by WriteText.
type Part interface {
	// Key names the part in the census's JSON object.
	Key() string
	// WriteText renders the part for a terminal.
	WriteText(w io.Writer)
}

// Census is one point-in-time inventory: the parts of the allocator's
// stack, top-down.
type Census struct {
	TakenUnixNano int64
	Parts         []Part
}

// New stamps a census of the given parts.
func New(parts ...Part) *Census {
	return &Census{TakenUnixNano: time.Now().UnixNano(), Parts: parts}
}

// WriteText renders every part in order, a blank line between two.
func (c *Census) WriteText(w io.Writer) {
	for i, p := range c.Parts {
		if i > 0 {
			fmt.Fprintln(w)
		}
		p.WriteText(w)
	}
}

// MarshalJSON renders the census as one object: takenUnixNano plus each
// part under its Key.
func (c *Census) MarshalJSON() ([]byte, error) {
	m := map[string]any{"takenUnixNano": c.TakenUnixNano}
	for _, p := range c.Parts {
		m[p.Key()] = p
	}
	return json.Marshal(m)
}

// table starts an aligned table on w under the given header row.
func table(w io.Writer, flags uint, header string) *tabwriter.Writer {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', flags)
	fmt.Fprintln(tw, header)
	return tw
}

// ClassCensus is one size class's inventory.
type ClassCensus struct {
	// Class is the size-class index, PayloadBytes its block payload.
	Class        int    `json:"class"`
	PayloadBytes uint64 `json:"payloadBytes"`
	// Superblocks counts descriptors by anchor state, indexed by
	// atomicx.StateActive/Full/Partial/Empty. EMPTY descriptors have
	// returned their superblock to the OS and are excluded from the
	// block and carve-waste totals below.
	Superblocks [4]uint64 `json:"superblocks"`
	// BlocksUsed counts blocks allocated out of the shared structures
	// (magazine-cached blocks are "used" here — MagazineCached says how
	// many of them sit in thread caches); BlocksFree blocks on
	// superblock free lists; BlocksReserved blocks spoken for through
	// Active-word credits but not yet popped.
	BlocksUsed     uint64 `json:"blocksUsed"`
	BlocksFree     uint64 `json:"blocksFree"`
	BlocksReserved uint64 `json:"blocksReserved"`
	MagazineCached uint64 `json:"magazineCached"`
	// PartialList is the size class's partial-list length.
	PartialList int `json:"partialList"`
	// CarveWasteWords is the exact per-superblock carving remainder
	// (SBWords − MaxCount×BlockWords) summed over live superblocks.
	CarveWasteWords uint64 `json:"carveWasteWords"`
	// SampledLive/SampledReqBytes/SampledWasteBytes aggregate the
	// allocation sampler's live samples for this class; zero when the
	// sampler is off or nothing was sampled.
	SampledLive       uint64 `json:"sampledLive,omitempty"`
	SampledReqBytes   uint64 `json:"sampledReqBytes,omitempty"`
	SampledWasteBytes uint64 `json:"sampledWasteBytes,omitempty"`
	// InternalFragRatio is SampledWasteBytes over the sampled class
	// bytes (SampledLive × PayloadBytes), in [0,1]; -1 when no samples.
	InternalFragRatio float64 `json:"internalFragRatio"`
}

// Totals aggregates the size classes.
type Totals struct {
	Superblocks    uint64 `json:"superblocks"` // live (non-EMPTY) superblocks
	BlocksUsed     uint64 `json:"blocksUsed"`
	BlocksFree     uint64 `json:"blocksFree"`
	BlocksReserved uint64 `json:"blocksReserved"`
	MagazineCached uint64 `json:"magazineCached"`
	// CarveWasteWords sums the per-class carving remainders.
	CarveWasteWords uint64 `json:"carveWasteWords"`
	// InternalFragRatio is the sampled waste over sampled class bytes
	// across all small classes (-1 with no samples).
	InternalFragRatio float64 `json:"internalFragRatio"`
}

// Superblocks is the lock-free allocator's superblock layer: the
// per-class inventory, which path served the mallocs, and the
// hyperblock batching below it.
type Superblocks struct {
	Classes []ClassCensus `json:"classes"`
	Totals  Totals        `json:"totals"`
	// Ops are the allocator's operation and path counters, Hyper the
	// hyperblock layer's (zero with the layer off).
	Ops   core.OpStats   `json:"ops"`
	Hyper mem.HyperStats `json:"hyper"`
}

// DescPool is the lock-free allocator's descriptor pool.
type DescPool struct {
	// Allocated counts descriptors ever carved, OnFreelist those
	// retired to the DescAvail list and awaiting reuse.
	Allocated  uint64 `json:"allocated"`
	OnFreelist uint64 `json:"onFreelist"`
}

// SiteCensus aggregates live sampled blocks by allocation call site.
type SiteCensus struct {
	// PC is the raw call-site program counter; Func/File/Line its
	// resolution (Func empty if unresolvable).
	PC   uint64 `json:"pc"`
	Func string `json:"func,omitempty"`
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
	// Live counts live samples attributed to the site; LiveBytes their
	// summed requested bytes; OldestNS the oldest sample's age.
	Live      uint64 `json:"live"`
	LiveBytes uint64 `json:"liveBytes"`
	OldestNS  int64  `json:"oldestNS"`
}

// Sampled is what the allocation sampler knows of the live blocks; the
// zero value when the sampler is off.
type Sampled struct {
	Enabled bool `json:"enabled"`
	telemetry.SamplerStats
	// Ages buckets live sampled blocks by age (log2 nanoseconds, same
	// bucket semantics as the telemetry histograms); the quantiles and
	// OldestNS derive from the samples.
	Ages     telemetry.HistBuckets `json:"ages"`
	AgeP50NS uint64                `json:"ageP50NS"`
	AgeP99NS uint64                `json:"ageP99NS"`
	OldestNS int64                 `json:"oldestNS"`
	// Sites ranks allocation call sites by live sampled bytes,
	// descending.
	Sites []SiteCensus `json:"sites,omitempty"`
}

// TakeLockFree walks the lock-free allocator and assembles its three
// parts. Safe during concurrent malloc/free; see the package comment
// for the consistency model.
func TakeLockFree(a *core.Allocator) (*Superblocks, *DescPool, *Sampled) {
	stats := a.Stats()
	sb := &Superblocks{Ops: stats.Ops, Hyper: a.HyperStats()}
	smp := &Sampled{}

	// Active-word reservations, per descriptor: these blocks sit on
	// free lists but are spoken for, so the walk splits them out of the
	// free count.
	reserved := make(map[uint64]uint64)
	a.WalkActive(func(ai core.ActiveInfo) {
		reserved[ai.Desc] = ai.Credits + 1
	})

	classes := sizeclass.All()
	sb.Classes = make([]ClassCensus, len(classes))
	for i, cls := range classes {
		sb.Classes[i] = ClassCensus{
			Class:             i,
			PayloadBytes:      cls.PayloadBytes,
			InternalFragRatio: -1,
		}
	}
	for i, n := range a.MagazineCounts() {
		sb.Classes[i].MagazineCached = n
	}
	for i, n := range a.PartialListLens() {
		sb.Classes[i].PartialList = n
	}

	a.WalkSuperblocks(func(d core.SuperblockInfo) bool {
		cc := &sb.Classes[d.Class]
		cc.Superblocks[d.State&3]++
		if d.State == atomicx.StateEmpty {
			return true // superblock returned to the OS
		}
		res := reserved[d.Desc]
		free := d.FreeCount
		used := d.MaxCount - free
		if used >= res {
			used -= res
		} else {
			// In-flight transition (reservation read before the pops it
			// covers); clamp rather than wrap.
			res = used
			used = 0
		}
		cc.BlocksUsed += used
		cc.BlocksFree += free
		cc.BlocksReserved += res
		cls := classes[d.Class]
		cc.CarveWasteWords += cls.SBWords - d.MaxCount*cls.BlockWords
		return true
	})

	// Sampler-derived estimates: internal fragmentation, ages, sites.
	if rec := a.Telemetry(); rec != nil && rec.Sampler() != nil {
		smp.Enabled, smp.SamplerStats = true, rec.Sampler().Stats()
		samples := rec.Sampler().Live()
		bySite := make(map[uint64]*SiteCensus)
		for _, s := range samples {
			smp.Ages.Observe(time.Duration(s.AgeNS))
			if s.AgeNS > smp.OldestNS {
				smp.OldestNS = s.AgeNS
			}
			if s.Class >= 0 && s.Class < len(sb.Classes) {
				cc := &sb.Classes[s.Class]
				cc.SampledLive++
				cc.SampledReqBytes += s.ReqBytes
				if w := cc.PayloadBytes - s.ReqBytes; w <= cc.PayloadBytes {
					cc.SampledWasteBytes += w
				}
			}
			sc := bySite[s.PC]
			if sc == nil {
				sc = &SiteCensus{PC: s.PC}
				bySite[s.PC] = sc
			}
			sc.Live++
			sc.LiveBytes += s.ReqBytes
			if s.AgeNS > sc.OldestNS {
				sc.OldestNS = s.AgeNS
			}
		}
		smp.AgeP50NS = smp.Ages.Quantile(0.50)
		smp.AgeP99NS = smp.Ages.Quantile(0.99)
		for _, s := range samples {
			if sc := bySite[s.PC]; sc != nil && sc.Func == "" {
				sc.Func, sc.File, sc.Line = resolveSite(s.PC, s.PC2)
			}
		}
		smp.Sites = make([]SiteCensus, 0, len(bySite))
		for _, sc := range bySite {
			smp.Sites = append(smp.Sites, *sc)
		}
		sort.Slice(smp.Sites, func(i, j int) bool {
			if smp.Sites[i].LiveBytes != smp.Sites[j].LiveBytes {
				return smp.Sites[i].LiveBytes > smp.Sites[j].LiveBytes
			}
			return smp.Sites[i].PC < smp.Sites[j].PC
		})
	}

	var totSampledWaste, totSampledClassBytes uint64
	for i := range sb.Classes {
		cc := &sb.Classes[i]
		sb.Totals.Superblocks += cc.Superblocks[atomicx.StateActive] +
			cc.Superblocks[atomicx.StateFull] + cc.Superblocks[atomicx.StatePartial]
		sb.Totals.BlocksUsed += cc.BlocksUsed
		sb.Totals.BlocksFree += cc.BlocksFree
		sb.Totals.BlocksReserved += cc.BlocksReserved
		sb.Totals.MagazineCached += cc.MagazineCached
		sb.Totals.CarveWasteWords += cc.CarveWasteWords
		if cc.SampledLive > 0 {
			classBytes := cc.SampledLive * cc.PayloadBytes
			cc.InternalFragRatio = float64(cc.SampledWasteBytes) / float64(classBytes)
			totSampledWaste += cc.SampledWasteBytes
			totSampledClassBytes += classBytes
		}
	}
	sb.Totals.InternalFragRatio = -1
	if totSampledClassBytes > 0 {
		sb.Totals.InternalFragRatio = float64(totSampledWaste) / float64(totSampledClassBytes)
	}

	dp := &DescPool{Allocated: stats.DescsAllocated, OnFreelist: stats.DescsOnFreelist}
	return sb, dp, smp
}

// resolveSite maps a sample's call-site PCs to (function, file, line),
// skipping frames inside the repro/alloc facade so benchmark workloads
// attribute to themselves rather than to the wrapper's Malloc method.
// Inlined frames are expanded via runtime.CallersFrames.
func resolveSite(pc, pc2 uint64) (fn, file string, line int) {
	pcs := make([]uintptr, 0, 2)
	if pc != 0 {
		pcs = append(pcs, uintptr(pc))
	}
	if pc2 != 0 {
		pcs = append(pcs, uintptr(pc2))
	}
	if len(pcs) == 0 {
		return "", "", 0
	}
	frames := runtime.CallersFrames(pcs)
	var first runtime.Frame
	for i := 0; ; i++ {
		f, more := frames.Next()
		if i == 0 {
			first = f
		}
		if f.Function != "" && !strings.HasPrefix(f.Function, "repro/alloc.") {
			return f.Function, f.File, f.Line
		}
		if !more {
			break
		}
	}
	return first.Function, first.File, first.Line
}

func (sb *Superblocks) Key() string { return "superblocks" }

func (sb *Superblocks) WriteText(w io.Writer) {
	o := sb.Ops
	fmt.Fprintf(w, "allocator: mallocs=%d frees=%d; %d large mallocs, %d empty-partial skips\n",
		o.Mallocs, o.Frees, o.LargeMallocs, o.EmptyPartialSkips)
	fmt.Fprintf(w, "paths: active=%d partial=%d newSB=%d raceLoss=%d sbFreed=%d\n",
		o.FromActive, o.FromPartial, o.FromNewSB, o.NewSBRaceLoss, o.EmptySBFreed)
	// Magazine hits are the mallocs the paths above do not serve:
	// active+partial+newSB+hits = mallocs.
	if o.MagazineHits+o.MagazineMisses+o.MagazineFlushes > 0 {
		fmt.Fprintf(w, "magazines: hits=%d misses=%d flushes=%d (%d blocks)\n",
			o.MagazineHits, o.MagazineMisses, o.MagazineFlushes, o.MagazineFlushedBlocks)
	}
	if sb.Hyper.HyperAllocs > 0 {
		fmt.Fprintf(w, "hyperblocks: %d allocated, %d released\n", sb.Hyper.HyperAllocs, sb.Hyper.HyperReleases)
	}
	fmt.Fprintln(w, "\nSize classes (superblocks by anchor state, block inventory):")
	tw := table(w, tabwriter.AlignRight, "class\tA\tF\tP\tE\tused\tfree\tresv\tmag\tpartial\tint frag\t")
	for _, cc := range sb.Classes {
		if cc.Superblocks == [4]uint64{} && cc.MagazineCached == 0 {
			continue
		}
		frag := "-"
		if cc.SampledLive > 0 {
			frag = fmt.Sprintf("%.1f%%", 100*cc.InternalFragRatio)
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t\n",
			cc.Class,
			cc.Superblocks[atomicx.StateActive], cc.Superblocks[atomicx.StateFull],
			cc.Superblocks[atomicx.StatePartial], cc.Superblocks[atomicx.StateEmpty],
			cc.BlocksUsed, cc.BlocksFree, cc.BlocksReserved,
			cc.MagazineCached, cc.PartialList, frag)
	}
	tw.Flush()
	t := sb.Totals
	fmt.Fprintf(w, "totals: %d superblocks, blocks used=%d free=%d resv=%d mag=%d, carve waste %d words\n",
		t.Superblocks, t.BlocksUsed, t.BlocksFree, t.BlocksReserved, t.MagazineCached, t.CarveWasteWords)
	if t.InternalFragRatio >= 0 {
		fmt.Fprintf(w, "sampled internal fragmentation: %.1f%%\n", 100*t.InternalFragRatio)
	}
}

func (dp *DescPool) Key() string { return "descPool" }

func (dp *DescPool) WriteText(w io.Writer) {
	fmt.Fprintf(w, "descriptors: %d allocated, %d on freelist\n", dp.Allocated, dp.OnFreelist)
}

func (s *Sampled) Key() string { return "sampler" }

func (s *Sampled) WriteText(w io.Writer) {
	if !s.Enabled {
		fmt.Fprintln(w, "Allocation sampler off: no age or call-site census")
		return
	}
	fmt.Fprintf(w, "Live-block ages (%d samples at rate 1/%d): p50=%v p99=%v oldest=%v\n",
		s.Ages.Count(), s.Rate,
		time.Duration(s.AgeP50NS), time.Duration(s.AgeP99NS), time.Duration(s.OldestNS))
	if len(s.Sites) == 0 {
		return
	}
	fmt.Fprintln(w, "\nTop call sites by live sampled bytes:")
	tw := table(w, 0, "live\tbytes\toldest\tsite\t")
	for i, sc := range s.Sites {
		if i == 5 {
			break
		}
		site := fmt.Sprintf("pc=%#x", sc.PC)
		if sc.Func != "" {
			site = fmt.Sprintf("%s (%s:%d)", sc.Func, sc.File, sc.Line)
		}
		fmt.Fprintf(tw, "%d\t%d\t%v\t%s\t\n", sc.Live, sc.LiveBytes, time.Duration(sc.OldestNS), site)
	}
	tw.Flush()
}

// Summary is the compact census digest embedded in benchmark results
// (bench.Result) and tables.
type Summary struct {
	Superblocks    uint64 `json:"superblocks"`
	BlocksUsed     uint64 `json:"blocksUsed"`
	BlocksFree     uint64 `json:"blocksFree"`
	MagazineCached uint64 `json:"magazineCached"`
	// InternalFragPct/ExternalFragPct are the totals' ratios as
	// percentages (-1 when unsampled).
	InternalFragPct float64 `json:"internalFragPct"`
	ExternalFragPct float64 `json:"externalFragPct"`
	LiveSamples     uint64  `json:"liveSamples"`
	AgeP50NS        uint64  `json:"ageP50NS"`
	AgeP99NS        uint64  `json:"ageP99NS"`
	OldestNS        int64   `json:"oldestNS"`
	Sites           int     `json:"sites"`
}

// Summary digests the census; the fields of a part it lacks stay zero
// (InternalFragPct -1).
func (c *Census) Summary() Summary {
	s := Summary{InternalFragPct: -1}
	for _, part := range c.Parts {
		switch p := part.(type) {
		case *Superblocks:
			s.Superblocks = p.Totals.Superblocks
			s.BlocksUsed = p.Totals.BlocksUsed
			s.BlocksFree = p.Totals.BlocksFree
			s.MagazineCached = p.Totals.MagazineCached
			if p.Totals.InternalFragRatio >= 0 {
				s.InternalFragPct = 100 * p.Totals.InternalFragRatio
			}
		case *OSLayer:
			s.ExternalFragPct = 100 * p.ExternalFragRatio
		case *Sampled:
			s.LiveSamples = p.Ages.Count()
			s.AgeP50NS = p.AgeP50NS
			s.AgeP99NS = p.AgeP99NS
			s.OldestNS = p.OldestNS
			s.Sites = len(p.Sites)
		}
	}
	return s
}
