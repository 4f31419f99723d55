package baselines

import (
	"baryon/internal/config"
	"baryon/internal/core"
	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

// Hybrid2Config derives the configuration of the Hybrid2 baseline from a
// Baryon config. Hybrid2 is the flat-scheme design of Vasilakis et al.
// (HPCA 2020): fully-associative hybrid memory with 2 kB blocks and 256 B
// sub-blocking, a fixed fast-memory cache portion buffering incoming
// sub-blocks, and a migration policy driven purely by write(back) traffic —
// no compression, no layout stability term.
//
// The paper itself frames Hybrid2's commit policy as the k = 0 special case
// of Baryon's Eq. 1, and its cache portion plays the role of the stage area
// without compression; this model therefore instantiates the core machinery
// with CompressionOff, k = 0, and all compression-dependent optimisations
// disabled, which yields exactly the paper's described behaviour: 256 B
// sub-block fetches, uncompressed one-range-per-slot frames, dirty-count
// migration decisions.
func Hybrid2Config(cfg config.Config) config.Config {
	cfg.Mode = config.ModeFlat
	cfg.FullyAssociative = true
	cfg.CompressionOff = true
	cfg.CachelineAligned = false
	cfg.ZeroBlockOpt = false
	cfg.CompressedWriteback = false
	cfg.CommitK = 0
	// Hybrid2 provisions a fixed, larger fast-memory cache portion (its
	// sub-block cache) where Baryon only reserves a small stage area.
	cfg.StageBytes *= 2
	if cfg.StageBytes > cfg.FastBytes/4 {
		cfg.StageBytes = cfg.FastBytes / 4
	}
	return cfg
}

// NewHybrid2 builds the Hybrid2 baseline over the canonical store.
func NewHybrid2(cfg config.Config, store *hybrid.Store, stats *sim.Stats) *core.Controller {
	return core.New(Hybrid2Config(cfg), store, stats)
}
