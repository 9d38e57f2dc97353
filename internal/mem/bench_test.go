package mem

import (
	"testing"

	"repro/internal/telemetry"
)

// BenchmarkRegionAllocFree measures the OS layer's superblock-size
// region round trip (the mmap/munmap stand-in cost).
func BenchmarkRegionAllocFree(b *testing.B) {
	h := NewHeap(Config{})
	for i := 0; i < b.N; i++ {
		p, _, err := h.AllocRegion(2048)
		if err != nil {
			b.Fatal(err)
		}
		h.FreeRegion(p, 2048)
	}
}

// BenchmarkRegionChurnParallel measures contended superblock-size
// region round trips — every iteration hits the bump pointer or a
// free-region bin. Region-CAS retries per operation are reported as a
// custom metric.
func BenchmarkRegionChurnParallel(b *testing.B) {
	h := NewHeap(Config{})
	rec := telemetry.New(telemetry.Config{})
	h.SetTelemetry(rec.Stripes())
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p, words, err := h.AllocRegion(2048)
			if err != nil {
				b.Error(err)
				return
			}
			h.FreeRegion(p, words)
		}
	})
	snap := rec.Snapshot()
	retries := snap.Retries[telemetry.SiteRegionPop.String()] +
		snap.Retries[telemetry.SiteRegionPush.String()] +
		snap.Retries[telemetry.SiteRegionBump.String()]
	b.ReportMetric(float64(retries)/float64(b.N), "region-retries/op")
}

// BenchmarkHyperAllocFree measures the §3.2.5 hyperblock layer's
// superblock round trip (amortized batching vs direct regions).
func BenchmarkHyperAllocFree(b *testing.B) {
	h := NewHeap(Config{})
	hy := NewHyper(h, 2048, 64)
	for i := 0; i < b.N; i++ {
		sb, err := hy.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		hy.Free(sb)
	}
}

// BenchmarkWordAccess measures the simulated address space's atomic
// word access (the per-word cost every allocator pays).
func BenchmarkWordAccess(b *testing.B) {
	h := NewHeap(Config{})
	p, _, _ := h.AllocRegion(8)
	b.Run("atomic-load", func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += h.Load(p)
		}
		_ = sink
	})
	b.Run("atomic-store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Store(p, uint64(i))
		}
	})
	b.Run("plain-get", func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += h.Get(p)
		}
		_ = sink
	})
	b.Run("cas", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.CAS(p, h.Load(p), uint64(i))
		}
	})
}
