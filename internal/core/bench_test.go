package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/telemetry"
)

func benchConfig() Config {
	return Config{Processors: 4}
}

func BenchmarkMallocFreePair(b *testing.B) { benchPair(b, benchConfig()) }

// BenchmarkMallocFreePairTelemetry is the pair with a recorder attached:
// its excess over BenchmarkMallocFreePair is the recorder's cost.
func BenchmarkMallocFreePairTelemetry(b *testing.B) {
	cfg := benchConfig()
	cfg.Telemetry = NewRecorder(telemetry.Config{})
	benchPair(b, cfg)
}

func benchPair(b *testing.B, cfg Config) {
	th := New(cfg).Thread()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := th.Malloc(8)
		if err != nil {
			b.Fatal(err)
		}
		th.Free(p)
	}
}

func BenchmarkMallocFreeBatch100(b *testing.B) {
	a := New(benchConfig())
	th := a.Thread()
	var ptrs [100]mem.Ptr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ptrs {
			p, err := th.Malloc(8)
			if err != nil {
				b.Fatal(err)
			}
			ptrs[j] = p
		}
		for j := range ptrs {
			th.Free(ptrs[j])
		}
	}
}

func BenchmarkMallocFreePairMagazine(b *testing.B) {
	cfg := benchConfig()
	cfg.MagazineSize = 64
	benchPair(b, cfg)
}

// BenchmarkMallocFreePairMagazineTelemetry is the magazine pair with a
// recorder attached: its excess over BenchmarkMallocFreePairMagazine is
// the recorder's cost on a magazine hit, the countdown.
func BenchmarkMallocFreePairMagazineTelemetry(b *testing.B) {
	cfg := benchConfig()
	cfg.MagazineSize = 64
	cfg.Telemetry = NewRecorder(telemetry.Config{})
	benchPair(b, cfg)
}

func BenchmarkMallocFreeParallelMagazine(b *testing.B) {
	cfg := benchConfig()
	cfg.MagazineSize = 64
	a := New(cfg)
	b.RunParallel(func(pb *testing.PB) {
		th := a.Thread()
		for pb.Next() {
			p, err := th.Malloc(8)
			if err != nil {
				b.Fatal(err)
			}
			th.Free(p)
		}
	})
}

func BenchmarkMallocFreeParallel(b *testing.B) {
	a := New(benchConfig())
	b.RunParallel(func(pb *testing.PB) {
		th := a.Thread()
		for pb.Next() {
			p, err := th.Malloc(8)
			if err != nil {
				b.Fatal(err)
			}
			th.Free(p)
		}
	})
}

// BenchmarkDescRecycleParallel stresses the descriptor pool: each
// iteration allocates a batch of seven-a-superblock blocks spanning many
// superblocks, then frees them all, so every batch retires its
// superblocks' descriptors to the one DescAvail list and the next batch
// reallocates them.
func BenchmarkDescRecycleParallel(b *testing.B) {
	cfg := benchConfig()
	rec := NewRecorder(telemetry.Config{})
	cfg.Telemetry = rec
	a := New(cfg)
	// 2048-byte blocks: 7 per superblock, so a 64-block batch churns ~10
	// superblocks (descriptors) per iteration.
	const batch, size = 64, 2048
	b.RunParallel(func(pb *testing.PB) {
		th := a.Thread()
		var ptrs [batch]mem.Ptr
		for pb.Next() {
			for j := range ptrs {
				p, err := th.Malloc(size)
				if err != nil {
					b.Fatal(err)
				}
				ptrs[j] = p
			}
			for j := range ptrs {
				th.Free(ptrs[j])
			}
		}
	})
	retries := rec.Snapshot().Retries
	descRetries := retries[telemetry.SiteDescAlloc.String()] +
		retries[telemetry.SiteDescRetire.String()]
	b.ReportMetric(float64(descRetries)/float64(b.N), "desc-retries/op")
}
