package experiment

import "baryon/internal/config"

// MetadataBudget computes the dual-format storage accounting of Section
// III-B/C for an arbitrary configuration (the test oracle behind
// TestBudgetPaperScale).
type MetadataBudget struct {
	StageTagArrayBytes uint64
	RemapTableBytes    uint64
	RemapCacheBytes    uint64
	TotalSRAMBytes     uint64
	TableFraction      float64 // remap table / total memory capacity
}

// Budget returns the metadata budget of cfg.
func Budget(cfg config.Config) MetadataBudget {
	b := MetadataBudget{
		StageTagArrayBytes: cfg.StageTagArrayBytes(),
		RemapTableBytes:    cfg.RemapTableBytes(),
		RemapCacheBytes:    cfg.RemapCacheBytes(),
	}
	b.TotalSRAMBytes = b.StageTagArrayBytes + b.RemapCacheBytes
	b.TableFraction = float64(b.RemapTableBytes) / float64(cfg.FastBytes+cfg.SlowBytes)
	return b
}
