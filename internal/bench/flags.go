package bench

import (
	"flag"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/pool"
)

// AllocFlags bundles the allocator-shape flags shared by cmd/benchmal,
// cmd/mlfstress and cmd/allocmon, so each knob — and any future one — is registered
// in one place with one help string instead of being copied per
// command.
type AllocFlags struct {
	Magazine    *int
	Arenas      *int
	DescStripes *int

	descAlgo *string
}

// RegisterAllocFlags registers the shared allocator-shape flags on fs
// (use flag.CommandLine for a command's top-level flags) and returns
// the handle to read them after fs.Parse.
func RegisterAllocFlags(fs *flag.FlagSet) *AllocFlags {
	return &AllocFlags{
		Magazine:    fs.Int("magazine", 0, "thread-local magazine capacity for lock-free allocators (0 = off)"),
		Arenas:      fs.Int("arenas", 0, "region arenas per heap (0 = one per processor, 1 = unsharded)"),
		DescStripes: fs.Int("descstripes", 0, "descriptor-pool freelist stripes (0 = one per processor, 1 = single DescAvail)"),
		descAlgo:    fs.String("descalgo", "", "descriptor-pool backend: freelist (default) or consttime (Blelloch-Wei)"),
	}
}

// DescAlgo parses the -descalgo flag value.
func (f *AllocFlags) DescAlgo() (pool.Algo, error) {
	return pool.ParseAlgo(*f.descAlgo)
}

// Apply copies the flag values into a core.Config (the caller fills the
// non-shape fields). It returns an error for an unparsable -descalgo
// or a resulting configuration that core.Config.Validate rejects.
func (f *AllocFlags) Apply(cfg core.Config) (core.Config, error) {
	algo, err := f.DescAlgo()
	if err != nil {
		return cfg, err
	}
	cfg.MagazineSize = *f.Magazine
	cfg.DescStripes = *f.DescStripes
	cfg.DescAlgo = algo
	if cfg.HeapConfig == (mem.Config{}) {
		cfg.HeapConfig = mem.Config{Arenas: *f.Arenas}
	} else {
		cfg.HeapConfig.Arenas = *f.Arenas
	}
	return cfg, cfg.Validate()
}
