// Package config holds the system configurations of Table I, in two sizes:
// the paper-scale parameters (4 GB DDR4 + 32 GB NVM, 64 MB stage area,
// 16 MB LLC) used for metadata-budget verification, and a scaled-down
// default used for timing runs (1/256 capacity; the stage area is scaled
// less aggressively because stage residency time, not capacity ratio, is
// what makes layouts stabilise), with the fast:slow capacity ratio and all
// block/sub-block/super-block sizes preserved.
package config

import (
	"fmt"

	"baryon/internal/metadata"
)

// Mode selects how the fast memory is used (Section II-A).
type Mode int

// The two hybrid-memory schemes.
const (
	// ModeCache uses the fast memory as an OS-invisible cache.
	ModeCache Mode = iota
	// ModeFlat exposes the fast memory as part of the physical space;
	// migrations are swaps.
	ModeFlat
)

func (m Mode) String() string {
	if m == ModeFlat {
		return "flat"
	}
	return "cache"
}

// ParseMode returns the Mode that String spells as s.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{ModeCache, ModeFlat} {
		if m.String() == s {
			return m, nil
		}
	}
	return ModeCache, fmt.Errorf("config: unknown mode %q (want %s or %s)", s, ModeCache, ModeFlat)
}

// MarshalText spells m as String does, so JSON and flags carry the mode's
// name rather than its number.
func (m Mode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses a mode name, rejecting any that ParseMode does not
// know.
func (m *Mode) UnmarshalText(text []byte) error {
	v, err := ParseMode(string(text))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// Config is the full system configuration for one run.
type Config struct {
	Cores int

	// Memory capacities in bytes. SlowBytes also sizes the OS-visible
	// space in cache mode; in flat mode the OS space is Fast+Slow.
	FastBytes  uint64
	SlowBytes  uint64
	StageBytes uint64 // stage area carved out of fast memory

	Mode             Mode
	Assoc            int  // fast blocks per set (4 default)
	FullyAssociative bool // Baryon-FA / Hybrid2 comparisons

	// Geometry. BlockBytes is 2 kB by default and 512 B in the Baryon-64B
	// variant; a block always holds SubBlocksPerBlock sub-blocks.
	BlockBytes       uint64
	SuperBlockBlocks int

	// DecompressLatency is in CPU cycles (Table I).
	DecompressLatency uint64

	// Remap cache organisation (Table I: 256 sets, 8 ways).
	RemapCacheSets, RemapCacheWays int

	// Baryon policy knobs (defaults are the paper's).
	CompressionOff      bool    // disable compression entirely (Hybrid2 model)
	CachelineAligned    bool    // Fig. 7 / Fig. 12
	ZeroBlockOpt        bool    // Z-bit, Fig. 12
	CompressedWriteback bool    // Section III-F optimisation
	TwoLevelReplacement bool    // Fig. 13(a)
	CommitK             float64 // selective commit k (Eq. 1); <0 means +inf
	CommitAll           bool    // Fig. 13(d) "commit all"
	UseStageArea        bool    // Fig. 13(c) "no stage area" ablation
	// StageAgeInterval is the per-set access count between right-shift
	// ageings of the stage miss counters (10000 at paper scale; scaled runs
	// shrink it with the stage so counters age a few times per stage-frame
	// lifetime, as the paper's constant does at full scale).
	StageAgeInterval uint32

	// CPU model.
	LLCKB int // shared LLC size
	// NoLLCPrefetch disables installing decompression by-products in the
	// LLC (the memory-to-LLC prefetching of Section III-E).
	NoLLCPrefetch bool
	// Tiers declares the ordered device topology (tier 0 = fast); see
	// TierSpecs. Empty — the default everywhere — is Table I's DDR4 over
	// NVM.
	Tiers []TierConfig

	// Run shape.
	AccessesPerCore int
	// WarmupAccessesPerCore, when > 0, replays that many accesses per core
	// before measurement starts (the zsim-style warmup-then-measure
	// methodology): caches, stage area and devices reach steady state, the
	// run registry is snapshotted, and the Result's headline metrics are
	// measurement-window deltas. 0 keeps the historical cold-start
	// behaviour bit-for-bit.
	WarmupAccessesPerCore int
	// EpochAccesses, when > 0, snapshots the run registry every that many
	// accesses (total across cores) during the measurement window,
	// producing the per-epoch IPC/serve-rate/bloat time-series in
	// Result.Epochs. 0 disables epoch collection.
	EpochAccesses int
	Seed          uint64
}

// Scaled returns the default configuration for timing runs: Table I scaled
// by 1/256 in capacity with all ratios preserved (16 MB fast + 128 MB slow,
// 1 MB stage, 64 kB LLC). The scale is chosen so that steady-state
// capacity pressure — the regime the paper's results live in — is reached
// within runs of a few hundred thousand accesses.
func Scaled() Config {
	return Config{
		Cores:             16,
		FastBytes:         16 << 20,
		SlowBytes:         128 << 20,
		StageBytes:        1 << 20,
		Mode:              ModeCache,
		Assoc:             4,
		BlockBytes:        2048,
		SuperBlockBlocks:  8,
		DecompressLatency: 5,
		RemapCacheSets:    256,
		RemapCacheWays:    8,

		CachelineAligned:    true,
		ZeroBlockOpt:        true,
		CompressedWriteback: true,
		TwoLevelReplacement: true,
		CommitK:             4,
		UseStageArea:        true,
		StageAgeInterval:    64,

		LLCKB:           64,
		AccessesPerCore: 30000,
		Seed:            1,
	}
}

// PaperScale returns the unscaled Table I configuration. It is used for
// metadata storage-budget checks and documentation; timing runs at this
// scale would need the paper's multi-hour simulations.
func PaperScale() Config {
	c := Scaled()
	c.FastBytes = 4 << 30
	c.SlowBytes = 32 << 30
	c.StageBytes = 64 << 20
	c.LLCKB = 16 * 1024
	c.StageAgeInterval = 10000
	return c
}

// FastBlocks returns the number of block frames in the fast memory's
// cache/flat area (stage area excluded).
func (c *Config) FastBlocks() uint64 {
	return (c.FastBytes - c.StageBytes) / c.BlockBytes
}

// TraceFastBlocks returns the fast-memory capacity beside the stage area
// in 2 kB blocks, the unit every workload's footprint scales with
// (trace.Workload.Blocks) whatever the controller's block size.
func (c *Config) TraceFastBlocks() uint64 {
	return (c.FastBytes - c.StageBytes) / 2048
}

// OSBlocks returns the number of blocks in the OS-visible physical space.
func (c *Config) OSBlocks() uint64 {
	if c.Mode == ModeFlat {
		return (c.FastBytes - c.StageBytes + c.SlowBytes) / c.BlockBytes
	}
	return c.SlowBytes / c.BlockBytes
}

// Sets returns the number of cache/flat-area sets (super-block indexed:
// caching and migration happen within a set, Section III-A).
func (c *Config) Sets() uint64 {
	if c.FullyAssociative {
		return 1
	}
	n := c.FastBlocks() / uint64(c.Assoc)
	if n == 0 {
		n = 1
	}
	return n
}

// WaysPerSet returns the fast block frames per set.
func (c *Config) WaysPerSet() int {
	if c.FullyAssociative {
		return int(c.FastBlocks())
	}
	return c.Assoc
}

// StageBlocks returns the number of block frames in the stage area.
func (c *Config) StageBlocks() uint64 { return c.StageBytes / c.BlockBytes }

// StageSets returns the stage area's set count (4 ways per set, Table I:
// 8192 sets x 4 ways at paper scale).
func (c *Config) StageSets() uint64 {
	n := c.StageBlocks() / 4
	if n == 0 {
		n = 1
	}
	return n
}

// SubBlocksPerBlock is fixed at eight by the metadata formats.
const SubBlocksPerBlock = 8

// Table I's metadata latencies in CPU cycles. Every access probes the stage
// tag array and the remap cache in parallel (Section III-D).
const (
	StageTagLatency   = 5
	RemapCacheLatency = 3
)

// StageTagArrayBytes returns the on-chip stage tag array budget: one 14 B
// entry per stage block (448 kB at paper scale).
func (c *Config) StageTagArrayBytes() uint64 { return c.StageBlocks() * 14 }

// RemapTableBytes returns the off-chip remap table budget: one 2 B entry
// per OS-visible block (0.1% of system capacity at paper scale).
func (c *Config) RemapTableBytes() uint64 { return c.OSBlocks() * metadata.RemapEntryBytes }

// RemapCacheBytes returns the on-chip remap cache budget: per line, a
// super-block's eight 2 B entries plus a 26-bit tag and state rounded to
// 4 B (40 kB at Table I's 256 sets x 8 ways).
func (c *Config) RemapCacheBytes() uint64 {
	return uint64(c.RemapCacheSets*c.RemapCacheWays) * (8*metadata.RemapEntryBytes + 4)
}
