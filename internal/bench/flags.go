package bench

import (
	"flag"

	"repro/alloc"
	"repro/internal/core"
)

// AllocFlags bundles the allocator-shape flags shared by cmd/benchmal
// and, through BackendFlags, the commands that run one backend, so each
// knob — and any future one — is registered in one place with one help
// string instead of being copied per command.
type AllocFlags struct {
	Magazine *int
}

// RegisterAllocFlags registers the shared allocator-shape flags on fs
// (use flag.CommandLine for a command's top-level flags) and returns
// the handle to read them after fs.Parse.
func RegisterAllocFlags(fs *flag.FlagSet) *AllocFlags {
	return &AllocFlags{
		Magazine: fs.Int("magazine", 0, "thread-local magazine capacity for lock-free allocators (0 = off)"),
	}
}

// BackendFlags is AllocFlags plus -alloc, for a command that runs one
// backend of the alloc registry (cmd/mlfstress, cmd/allocmon).
type BackendFlags struct {
	*AllocFlags
	name *string
}

// RegisterBackendFlags registers -alloc and the shape flags on fs.
func RegisterBackendFlags(fs *flag.FlagSet) *BackendFlags {
	return &BackendFlags{
		AllocFlags: RegisterAllocFlags(fs),
		name:       fs.String("alloc", "lockfree", "allocator backend, one of alloc.Names(); the shape flags configure lockfree only"),
	}
}

// Apply copies the flag values into a core.Config (the caller fills the
// non-shape fields). It returns an error for a resulting configuration
// that core.Config.Validate rejects.
func (f *AllocFlags) Apply(cfg core.Config) (core.Config, error) {
	cfg.MagazineSize = *f.Magazine
	return cfg, cfg.Validate()
}

// New builds the -alloc backend through the registry: cfg with the
// shape flags applied, its Processors and HeapConfig also sizing the
// other backends; opt carries what cfg cannot (the shadow oracle). The
// applied cfg is returned for the caller's banner.
func (f *BackendFlags) New(cfg core.Config, opt alloc.Options) (alloc.Allocator, core.Config, error) {
	cfg, err := f.Apply(cfg)
	if err != nil {
		return nil, cfg, err
	}
	opt.Processors, opt.HeapConfig, opt.LockFree = cfg.Processors, cfg.HeapConfig, cfg
	a, err := alloc.New(*f.name, opt)
	return a, cfg, err
}
