package config

import (
	"fmt"

	"baryon/internal/fault"
)

// Overrides is a partial Config: every field is a pointer, and only non-nil
// fields are applied. It is the serializable half of a design spec — a
// design is a controller kind plus the configuration deltas that define it
// (e.g. Baryon-64B is the baryon kind with BlockBytes 512 and SubBlockBytes
// 64) — and the JSON schema of -design-file.
type Overrides struct {
	// Mode is "cache" or "flat" (string form for JSON friendliness).
	Mode *string `json:"mode,omitempty"`

	FastBytes  *uint64 `json:"fastBytes,omitempty"`
	SlowBytes  *uint64 `json:"slowBytes,omitempty"`
	StageBytes *uint64 `json:"stageBytes,omitempty"`

	Assoc            *int  `json:"assoc,omitempty"`
	FullyAssociative *bool `json:"fullyAssociative,omitempty"`

	BlockBytes       *uint64 `json:"blockBytes,omitempty"`
	SubBlockBytes    *uint64 `json:"subBlockBytes,omitempty"`
	SuperBlockBlocks *int    `json:"superBlockBlocks,omitempty"`

	StageTagLatency   *uint64 `json:"stageTagLatency,omitempty"`
	RemapCacheLatency *uint64 `json:"remapCacheLatency,omitempty"`
	DecompressLatency *uint64 `json:"decompressLatency,omitempty"`

	RemapCacheSets *int `json:"remapCacheSets,omitempty"`
	RemapCacheWays *int `json:"remapCacheWays,omitempty"`

	CompressionOff      *bool    `json:"compressionOff,omitempty"`
	UseCPack            *bool    `json:"useCPack,omitempty"`
	CachelineAligned    *bool    `json:"cachelineAligned,omitempty"`
	ZeroBlockOpt        *bool    `json:"zeroBlockOpt,omitempty"`
	CompressedWriteback *bool    `json:"compressedWriteback,omitempty"`
	TwoLevelReplacement *bool    `json:"twoLevelReplacement,omitempty"`
	CommitK             *float64 `json:"commitK,omitempty"`
	CommitAll           *bool    `json:"commitAll,omitempty"`
	UseStageArea        *bool    `json:"useStageArea,omitempty"`
	StageAgeInterval    *uint32  `json:"stageAgeInterval,omitempty"`

	MLPOverlap    *float64 `json:"mlpOverlap,omitempty"`
	LLCKB         *int     `json:"llcKB,omitempty"`
	NoLLCPrefetch *bool    `json:"noLLCPrefetch,omitempty"`

	// Run shape. Designs rarely pin these; they exist so a run's full
	// configuration delta — including the access budget and window layout —
	// can be expressed as one Overrides value (the canonical spec key of
	// run-report bundles, internal/report).
	AccessesPerCore       *int `json:"accessesPerCore,omitempty"`
	WarmupAccessesPerCore *int `json:"warmupAccessesPerCore,omitempty"`
	EpochAccesses         *int `json:"epochAccesses,omitempty"`

	// Tiers replaces the run's device topology wholesale (like Fault, a
	// partial merge of an ordered list would be ambiguous).
	Tiers *[]TierConfig `json:"tiers,omitempty"`

	// Fault replaces the run's fault-injection config wholesale (a partial
	// merge of nested fault fields would be ambiguous between "unset" and
	// "zero").
	Fault *fault.Config `json:"fault,omitempty"`
}

// Apply copies every non-nil override onto c. It returns an error only for
// values that cannot be represented in Config (an unknown Mode string).
func (o *Overrides) Apply(c *Config) error {
	if o == nil {
		return nil
	}
	if o.Mode != nil {
		switch *o.Mode {
		case "cache":
			c.Mode = ModeCache
		case "flat":
			c.Mode = ModeFlat
		default:
			return fmt.Errorf("config: unknown mode %q (want cache or flat)", *o.Mode)
		}
	}
	setIf(&c.FastBytes, o.FastBytes)
	setIf(&c.SlowBytes, o.SlowBytes)
	setIf(&c.StageBytes, o.StageBytes)
	setIf(&c.Assoc, o.Assoc)
	setIf(&c.FullyAssociative, o.FullyAssociative)
	setIf(&c.BlockBytes, o.BlockBytes)
	setIf(&c.SubBlockBytes, o.SubBlockBytes)
	setIf(&c.SuperBlockBlocks, o.SuperBlockBlocks)
	setIf(&c.StageTagLatency, o.StageTagLatency)
	setIf(&c.RemapCacheLatency, o.RemapCacheLatency)
	setIf(&c.DecompressLatency, o.DecompressLatency)
	setIf(&c.RemapCacheSets, o.RemapCacheSets)
	setIf(&c.RemapCacheWays, o.RemapCacheWays)
	setIf(&c.CompressionOff, o.CompressionOff)
	setIf(&c.UseCPack, o.UseCPack)
	setIf(&c.CachelineAligned, o.CachelineAligned)
	setIf(&c.ZeroBlockOpt, o.ZeroBlockOpt)
	setIf(&c.CompressedWriteback, o.CompressedWriteback)
	setIf(&c.TwoLevelReplacement, o.TwoLevelReplacement)
	setIf(&c.CommitK, o.CommitK)
	setIf(&c.CommitAll, o.CommitAll)
	setIf(&c.UseStageArea, o.UseStageArea)
	setIf(&c.StageAgeInterval, o.StageAgeInterval)
	setIf(&c.MLPOverlap, o.MLPOverlap)
	setIf(&c.LLCKB, o.LLCKB)
	setIf(&c.NoLLCPrefetch, o.NoLLCPrefetch)
	setIf(&c.AccessesPerCore, o.AccessesPerCore)
	setIf(&c.WarmupAccessesPerCore, o.WarmupAccessesPerCore)
	setIf(&c.EpochAccesses, o.EpochAccesses)
	setIf(&c.Tiers, o.Tiers)
	setIf(&c.Fault, o.Fault)
	return nil
}

func setIf[T any](dst *T, src *T) {
	if src != nil {
		*dst = *src
	}
}

// Ptr returns a pointer to v, for declaring Overrides literals.
func Ptr[T any](v T) *T { return &v }
