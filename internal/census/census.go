// Package census builds consistent point-in-time inventories of a
// lock-free allocator's memory: where every superblock, block, and
// region is, how much of the footprint is fragmentation (internal and
// external), which call sites hold the live bytes, and how old they
// are. It answers the question the telemetry layer (contention and
// latency) does not ask: "where is the memory?"
//
// A census is assembled entirely from racy-consistent atomic reads —
// the core walk primitives (Allocator.WalkSuperblocks, WalkActive,
// MagazineCounts, PartialListLens), the mem bin counters
// (Heap.BinCensus), the descriptor-pool stripe counters, and the
// telemetry allocation sampler — so Take is safe (and race-detector-
// clean) while malloc/free churn, and lock-free: a stalled or killed
// thread anywhere in the allocator cannot block a walk, and a walk
// cannot block any allocator operation. The price is bounded
// inconsistency: each value is exact at some instant during the walk,
// but cross-structure identities (used+free+reserved == capacity) can
// be off by in-flight operations; they are exact at quiescence.
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
//   - External fragmentation (per arena) is the free-region mass
//     parked in the arena's bins as a fraction of its reserved address
//     space: memory the OS layer holds but no superblock or large
//     block occupies.
//
//   - Live-block age buckets come from the same sampler: allocations
//     are sampled uniformly at rate 1/N, so surviving samples of age A
//     estimate the population of live blocks allocated A ago; mass in
//     old buckets that keeps growing is the leak signature.
package census

import (
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/atomicx"
	"repro/internal/core"
	"repro/internal/sizeclass"
	"repro/internal/telemetry"
)

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

// ArenaCensus is one region arena's inventory.
type ArenaCensus struct {
	Arena int `json:"arena"`
	// PartitionWords is the arena's address-space capacity;
	// ReservedWords what its bump pointer has consumed; LiveWords the
	// words currently inside allocated regions; SkippedWords the bump
	// waste from segment-boundary skips.
	PartitionWords uint64 `json:"partitionWords"`
	ReservedWords  uint64 `json:"reservedWords"`
	LiveWords      uint64 `json:"liveWords"`
	SkippedWords   uint64 `json:"skippedWords"`
	// FreeRegions/FreeWords inventory the arena's free-region bins.
	FreeRegions uint64 `json:"freeRegions"`
	FreeWords   uint64 `json:"freeWords"`
	// BumpOccupancy is ReservedWords/PartitionWords;
	// ExternalFragRatio is FreeWords/ReservedWords (free-but-held
	// address space), 0 when nothing is reserved.
	BumpOccupancy     float64 `json:"bumpOccupancy"`
	ExternalFragRatio float64 `json:"externalFragRatio"`
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

// Totals aggregates the whole heap.
type Totals struct {
	Superblocks    uint64 `json:"superblocks"` // live (non-EMPTY) superblocks
	BlocksUsed     uint64 `json:"blocksUsed"`
	BlocksFree     uint64 `json:"blocksFree"`
	BlocksReserved uint64 `json:"blocksReserved"`
	MagazineCached uint64 `json:"magazineCached"`
	// CarveWasteWords sums the per-class carving remainders.
	CarveWasteWords uint64 `json:"carveWasteWords"`
	// InternalFragRatio is the sampled waste over sampled class bytes
	// across all small classes (-1 with no samples);
	// ExternalFragRatio the bin-parked words over reserved words
	// across all arenas.
	InternalFragRatio float64 `json:"internalFragRatio"`
	ExternalFragRatio float64 `json:"externalFragRatio"`
}

// SamplerInfo carries the sampler's configuration and counters into
// the census (zero value when the sampler is off).
type SamplerInfo struct {
	Enabled bool `json:"enabled"`
	telemetry.SamplerStats
}

// Census is one point-in-time heap inventory.
type Census struct {
	TakenUnixNano int64 `json:"takenUnixNano"`

	Classes []ClassCensus `json:"classes"`
	Arenas  []ArenaCensus `json:"arenas"`
	// DescStripeFree is the retired-descriptor count per descriptor-
	// pool stripe (freelist depth).
	DescStripeFree []uint64 `json:"descStripeFree"`

	Totals Totals `json:"totals"`

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

	Sampler SamplerInfo `json:"sampler"`

	// Buddy, when set (allocmon -buddy), carries the non-blocking
	// buddy allocator's order-occupancy census alongside the core's.
	// Take never fills it; attach one from TakeBuddy.
	Buddy *BuddyCensus `json:"buddy,omitempty"`
}

// Take walks the allocator and assembles a census. Lock-free and safe
// during concurrent malloc/free; see the package comment for the
// consistency model.
func Take(a *core.Allocator) *Census {
	c := &Census{TakenUnixNano: time.Now().UnixNano()}

	// Active-word reservations, per descriptor: these blocks sit on
	// free lists but are spoken for, so the walk splits them out of the
	// free count.
	reserved := make(map[uint64]uint64)
	a.WalkActive(func(ai core.ActiveInfo) {
		reserved[ai.Desc] = ai.Credits + 1
	})

	classes := sizeclass.All()
	c.Classes = make([]ClassCensus, len(classes))
	for i, cls := range classes {
		c.Classes[i] = ClassCensus{
			Class:             i,
			PayloadBytes:      cls.PayloadBytes,
			InternalFragRatio: -1,
		}
	}
	for i, n := range a.MagazineCounts() {
		c.Classes[i].MagazineCached = n
	}
	for i, n := range a.PartialListLens() {
		c.Classes[i].PartialList = n
	}

	a.WalkSuperblocks(func(sb core.SuperblockInfo) bool {
		cc := &c.Classes[sb.Class]
		cc.Superblocks[sb.State&3]++
		if sb.State == atomicx.StateEmpty {
			return true // superblock returned to the OS
		}
		res := reserved[sb.Desc]
		free := sb.FreeCount
		used := sb.MaxCount - free
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
		cls := classes[sb.Class]
		cc.CarveWasteWords += cls.SBWords - sb.MaxCount*cls.BlockWords
		return true
	})

	// Sampler-derived estimates: internal fragmentation, ages, sites.
	var totSampledWaste, totSampledClassBytes uint64
	if rec := a.Telemetry(); rec != nil && rec.Sampler() != nil {
		smp := rec.Sampler()
		c.Sampler = SamplerInfo{Enabled: true, SamplerStats: smp.Stats()}
		samples := smp.Live()
		bySite := make(map[uint64]*SiteCensus)
		for _, s := range samples {
			c.Ages.Observe(time.Duration(s.AgeNS))
			if s.AgeNS > c.OldestNS {
				c.OldestNS = s.AgeNS
			}
			if s.Class >= 0 && s.Class < len(c.Classes) {
				cc := &c.Classes[s.Class]
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
		c.AgeP50NS = c.Ages.Quantile(0.50)
		c.AgeP99NS = c.Ages.Quantile(0.99)
		for _, s := range samples {
			if sc := bySite[s.PC]; sc != nil && sc.Func == "" {
				sc.Func, sc.File, sc.Line = resolveSite(s.PC, s.PC2)
			}
		}
		c.Sites = make([]SiteCensus, 0, len(bySite))
		for _, sc := range bySite {
			c.Sites = append(c.Sites, *sc)
		}
		sort.Slice(c.Sites, func(i, j int) bool {
			if c.Sites[i].LiveBytes != c.Sites[j].LiveBytes {
				return c.Sites[i].LiveBytes > c.Sites[j].LiveBytes
			}
			return c.Sites[i].PC < c.Sites[j].PC
		})
	}

	for i := range c.Classes {
		cc := &c.Classes[i]
		c.Totals.Superblocks += cc.Superblocks[atomicx.StateActive] +
			cc.Superblocks[atomicx.StateFull] + cc.Superblocks[atomicx.StatePartial]
		c.Totals.BlocksUsed += cc.BlocksUsed
		c.Totals.BlocksFree += cc.BlocksFree
		c.Totals.BlocksReserved += cc.BlocksReserved
		c.Totals.MagazineCached += cc.MagazineCached
		c.Totals.CarveWasteWords += cc.CarveWasteWords
		if cc.SampledLive > 0 {
			classBytes := cc.SampledLive * cc.PayloadBytes
			cc.InternalFragRatio = float64(cc.SampledWasteBytes) / float64(classBytes)
			totSampledWaste += cc.SampledWasteBytes
			totSampledClassBytes += classBytes
		}
	}
	c.Totals.InternalFragRatio = -1
	if totSampledClassBytes > 0 {
		c.Totals.InternalFragRatio = float64(totSampledWaste) / float64(totSampledClassBytes)
	}

	// Arena inventory: bump/live/skip counters from Stats, bin census
	// from the push/pop-maintained counters.
	// Bins before Stats: a region can sit in a bin only after the bump
	// that reserved it was counted, and ReservedWords never falls, so a
	// later reading of it covers every region the earlier bin census saw
	// and the ratios below stay within [0, 1] under churn. The other
	// order let a walk that began beside the first superblock's birth
	// report more free words than reserved ones.
	h := a.Heap()
	bins := h.BinCensus()
	hs := h.Stats()
	c.Arenas = make([]ArenaCensus, len(bins))
	var totFree, totReserved uint64
	for i, b := range bins {
		ac := ArenaCensus{
			Arena:          i,
			PartitionWords: b.PartitionWords,
			FreeRegions:    b.FreeRegions,
			FreeWords:      b.FreeWords,
		}
		if i < len(hs.Arenas) {
			ac.ReservedWords = hs.Arenas[i].ReservedWords
			ac.LiveWords = hs.Arenas[i].LiveWords
			ac.SkippedWords = hs.Arenas[i].SkippedWords
		}
		if ac.PartitionWords > 0 {
			ac.BumpOccupancy = float64(ac.ReservedWords) / float64(ac.PartitionWords)
		}
		if ac.ReservedWords > 0 {
			ac.ExternalFragRatio = float64(ac.FreeWords) / float64(ac.ReservedWords)
		}
		totFree += ac.FreeWords
		totReserved += ac.ReservedWords
		c.Arenas[i] = ac
	}
	if totReserved > 0 {
		c.Totals.ExternalFragRatio = float64(totFree) / float64(totReserved)
	}

	c.DescStripeFree = a.DescStripeFree()
	return c
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

// Summary digests the census.
func (c *Census) Summary() Summary {
	s := Summary{
		Superblocks:     c.Totals.Superblocks,
		BlocksUsed:      c.Totals.BlocksUsed,
		BlocksFree:      c.Totals.BlocksFree,
		MagazineCached:  c.Totals.MagazineCached,
		InternalFragPct: -1,
		ExternalFragPct: 100 * c.Totals.ExternalFragRatio,
		LiveSamples:     c.Ages.Count(),
		AgeP50NS:        c.AgeP50NS,
		AgeP99NS:        c.AgeP99NS,
		OldestNS:        c.OldestNS,
		Sites:           len(c.Sites),
	}
	if c.Totals.InternalFragRatio >= 0 {
		s.InternalFragPct = 100 * c.Totals.InternalFragRatio
	}
	return s
}
