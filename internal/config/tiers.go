package config

import (
	"fmt"
	"strings"

	"baryon/internal/cache"
	"baryon/internal/hybrid"
	"baryon/internal/mem"
)

// TierConfig declares one memory tier of a run by preset name plus local
// overrides. It is the JSON schema of the "tiers" section in -design-file
// specs.
type TierConfig struct {
	// Preset names a registered device preset (mem.Presets): "ddr4",
	// "ddr4-detailed", "nvm", "optane", "pcm", "cxl-dram", "cxl-ibex".
	Preset string `json:"preset"`
	// Name overrides the device (and stats scope) name, e.g. to distinguish
	// two tiers built from the same preset.
	Name string `json:"name,omitempty"`
	// Bytes is the capacity window of canonical far addresses this tier
	// owns. Required on intermediate far tiers (1..n-2); ignored on tier 0
	// and optional on the last tier (the catch-all).
	Bytes uint64 `json:"bytes,omitempty"`
	// CXL replaces the preset's expander-link params wholesale (nil keeps
	// the preset's own, which is how "cxl-dram"/"cxl-ibex" get theirs).
	CXL *mem.CXLParams `json:"cxl,omitempty"`
}

// resolve turns the tier declaration into a device config.
func (t *TierConfig) resolve() (mem.Config, error) {
	cfg, ok := mem.PresetByName(t.Preset)
	if !ok {
		return mem.Config{}, fmt.Errorf("config: unknown tier preset %q (registered: %s)",
			t.Preset, strings.Join(mem.Presets(), ", "))
	}
	if t.Name != "" {
		cfg.Name = t.Name
	}
	if t.CXL != nil {
		p := *t.CXL
		cfg.CXL = &p
	}
	return cfg, nil
}

// TierSpecs returns the engine tier list this config describes, resolving
// each declared tier in order. An empty Tiers section is Table I's two-tier
// topology, DDR4 over NVM.
func (c *Config) TierSpecs() ([]hybrid.TierSpec, error) {
	tiers := c.Tiers
	if len(tiers) == 0 {
		tiers = []TierConfig{{Preset: "ddr4"}, {Preset: "nvm"}}
	}
	if len(tiers) < 2 {
		return nil, fmt.Errorf("config: tiers needs at least 2 entries, got %d", len(tiers))
	}
	specs := make([]hybrid.TierSpec, 0, len(tiers))
	for i := range tiers {
		devCfg, err := tiers[i].resolve()
		if err != nil {
			return nil, fmt.Errorf("tier %d: %w", i, err)
		}
		if i >= 1 && i < len(tiers)-1 && tiers[i].Bytes == 0 {
			return nil, fmt.Errorf("config: tier %d (%s) is an intermediate far tier and needs bytes set",
				i, devCfg.Name)
		}
		specs = append(specs, hybrid.TierSpec{Cfg: devCfg, Bytes: tiers[i].Bytes})
	}
	return specs, nil
}

// Validate checks the configuration's device topology up front, so an
// unknown preset or a malformed tier list fails at config-validation time
// with an actionable message instead of deep in construction. It mirrors
// how unknown -design names are rejected. It also bounds the core count to
// what the cache hierarchy supports, rejects geometry counts below one
// (each divides an address or sizes an array), super-blocks larger than a
// stage tag can name a block in, and a set-associative flat mode whose
// super-blocks hold fewer blocks than a set has ways: a flat set's frames
// start out holding its own super-block's blocks, one per way.
func (c *Config) Validate() error {
	if err := cache.CheckCores(c.Cores); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"assoc", c.Assoc},
		{"superBlockBlocks", c.SuperBlockBlocks},
		{"remapCacheSets", c.RemapCacheSets},
		{"remapCacheWays", c.RemapCacheWays},
		{"llcKB", c.LLCKB},
	} {
		if f.v < 1 {
			return fmt.Errorf("config: %s = %d, want >= 1", f.name, f.v)
		}
	}
	if c.SuperBlockBlocks > maxSuperBlockBlocks {
		return fmt.Errorf("config: superBlockBlocks = %d, want <= %d (a stage tag range's BlkOff has 8 bits)", c.SuperBlockBlocks, maxSuperBlockBlocks)
	}
	if err := c.validateGeometry(); err != nil {
		return err
	}
	if c.Mode == ModeFlat && !c.FullyAssociative && c.SuperBlockBlocks < c.Assoc {
		return fmt.Errorf("config: flat mode needs superBlockBlocks >= assoc (%d < %d): each set's ways start out holding blocks of its own super-block",
			c.SuperBlockBlocks, c.Assoc)
	}
	specs, err := c.TierSpecs()
	if err != nil {
		return err
	}
	seen := make(map[string]int, len(specs))
	for i, spec := range specs {
		if prev, dup := seen[spec.Cfg.Name]; dup {
			return fmt.Errorf("config: tiers %d and %d share device name %q; set a distinct name",
				prev, i, spec.Cfg.Name)
		}
		seen[spec.Cfg.Name] = i
		if spec.Cfg.CXL != nil && !mem.ValidCXLCompression(spec.Cfg.CXL.Compression) {
			return fmt.Errorf("config: tier %d (%s): unknown cxl compression %q (want one of: fpc, bdi, best, or empty)",
				i, spec.Cfg.Name, spec.Cfg.CXL.Compression)
		}
	}
	return nil
}

// Block geometry bounds: a sub-block holds at least one cacheline, a
// block lies within one of the store's blocks (hybrid.Store.Bytes), and a
// super-block's blocks fit metadata.Range's 8-bit BlkOff.
const (
	minBlockBytes       = SubBlocksPerBlock * hybrid.CachelineSize
	maxBlockBytes       = hybrid.BlockSize
	maxSuperBlockBlocks = 1 << 8
)

// validateGeometry checks what the constructors divide by and size tables
// with: blockBytes is a power of two from minBlockBytes to maxBlockBytes,
// fast memory beyond the stage area holds at least one set of assoc
// blocks, and slow memory at least one super-block.
func (c *Config) validateGeometry() error {
	if c.BlockBytes < minBlockBytes || c.BlockBytes > maxBlockBytes || c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("config: blockBytes = %d, want a power of two from %d to %d", c.BlockBytes, minBlockBytes, maxBlockBytes)
	}
	if set := uint64(c.Assoc) * c.BlockBytes; c.FastBytes < c.StageBytes || c.FastBytes-c.StageBytes < set {
		return fmt.Errorf("config: fastBytes = %d, want >= stageBytes + assoc * blockBytes = %d (one set beside the stage area)",
			c.FastBytes, c.StageBytes+set)
	}
	if super := uint64(c.SuperBlockBlocks) * c.BlockBytes; c.SlowBytes < super {
		return fmt.Errorf("config: slowBytes = %d, want >= superBlockBlocks * blockBytes = %d (one super-block)", c.SlowBytes, super)
	}
	return nil
}
