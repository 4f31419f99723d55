package config

import (
	"reflect"
	"strings"
)

// Overrides is a partial Config: every field is a pointer, and only non-nil
// fields are applied. It is the serializable half of a design spec — a
// design is a controller kind plus the configuration deltas that define it
// (e.g. Baryon-64B is the baryon kind with BlockBytes 512) — and the JSON
// schema of -design-file. Apply and Diff walk these fields by name, so each
// must have a same-named Config field of its element type (checked when the
// package loads); adding an overridable field is one line here.
type Overrides struct {
	// Mode is spelled by name in JSON ("cache" or "flat"); decoding
	// rejects any other name.
	Mode *Mode `json:"mode,omitempty"`

	FastBytes  *uint64 `json:"fastBytes,omitempty"`
	SlowBytes  *uint64 `json:"slowBytes,omitempty"`
	StageBytes *uint64 `json:"stageBytes,omitempty"`

	Assoc            *int  `json:"assoc,omitempty"`
	FullyAssociative *bool `json:"fullyAssociative,omitempty"`

	BlockBytes       *uint64 `json:"blockBytes,omitempty"`
	SuperBlockBlocks *int    `json:"superBlockBlocks,omitempty"`

	DecompressLatency *uint64 `json:"decompressLatency,omitempty"`

	RemapCacheSets *int `json:"remapCacheSets,omitempty"`
	RemapCacheWays *int `json:"remapCacheWays,omitempty"`

	CompressionOff      *bool    `json:"compressionOff,omitempty"`
	CachelineAligned    *bool    `json:"cachelineAligned,omitempty"`
	ZeroBlockOpt        *bool    `json:"zeroBlockOpt,omitempty"`
	CompressedWriteback *bool    `json:"compressedWriteback,omitempty"`
	TwoLevelReplacement *bool    `json:"twoLevelReplacement,omitempty"`
	CommitK             *float64 `json:"commitK,omitempty"`
	CommitAll           *bool    `json:"commitAll,omitempty"`
	UseStageArea        *bool    `json:"useStageArea,omitempty"`
	StageAgeInterval    *uint32  `json:"stageAgeInterval,omitempty"`

	LLCKB         *int  `json:"llcKB,omitempty"`
	NoLLCPrefetch *bool `json:"noLLCPrefetch,omitempty"`

	// Run shape. Designs rarely pin these; they exist so a run's full
	// configuration delta — including the access budget and window layout —
	// can be expressed as one Overrides value (the canonical spec key of
	// run-report bundles, internal/report).
	AccessesPerCore       *int `json:"accessesPerCore,omitempty"`
	WarmupAccessesPerCore *int `json:"warmupAccessesPerCore,omitempty"`
	EpochAccesses         *int `json:"epochAccesses,omitempty"`

	// Tiers replaces the run's device topology wholesale (a partial merge
	// of an ordered list would be ambiguous).
	Tiers *[]TierConfig `json:"tiers,omitempty"`
}

// overrideField pairs an Overrides field with the same-named Config field it
// overrides.
type overrideField struct {
	o, c int    // field indices in Overrides and Config
	name string // the JSON name, as a design file spells it
	// comparable is false only for Tiers, which holds a slice and is
	// compared with reflect.DeepEqual.
	comparable bool
}

// overrideFields lists every Overrides field, computed once: the struct
// declaration is the only list of what a design or run may override.
var overrideFields = func() []overrideField {
	ot, ct := reflect.TypeOf(Overrides{}), reflect.TypeOf(Config{})
	fs := make([]overrideField, ot.NumField())
	for i := range fs {
		of := ot.Field(i)
		cf, ok := ct.FieldByName(of.Name)
		if !ok || len(cf.Index) != 1 || of.Type != reflect.PointerTo(cf.Type) {
			panic("config: Overrides." + of.Name + " has no Config field of its element type")
		}
		name, _, _ := strings.Cut(of.Tag.Get("json"), ",")
		fs[i] = overrideField{o: i, c: cf.Index[0], name: name, comparable: cf.Type.Comparable()}
	}
	return fs
}()

// Apply copies every non-nil override onto c.
func (o *Overrides) Apply(c *Config) {
	if o == nil {
		return
	}
	ov, cv := reflect.ValueOf(o).Elem(), reflect.ValueOf(c).Elem()
	for _, f := range overrideFields {
		if p := ov.Field(f.o); !p.IsNil() {
			cv.Field(f.c).Set(p.Elem())
		}
	}
}

// SetFields returns the JSON names of the fields o sets, in declaration
// order.
func (o *Overrides) SetFields() []string {
	var names []string
	ov := reflect.ValueOf(o).Elem()
	for _, f := range overrideFields {
		if !ov.Field(f.o).IsNil() {
			names = append(names, f.name)
		}
	}
	return names
}

// Diff returns the Overrides that turn base into c: one non-nil field per
// overridable value that differs, so Apply(Diff(base, c)) onto base yields
// c on every field Overrides covers. Fields Overrides cannot express
// (Cores, Seed) are not compared.
func Diff(base, c *Config) Overrides {
	var o Overrides
	ov := reflect.ValueOf(&o).Elem()
	bv, cv := reflect.ValueOf(base).Elem(), reflect.ValueOf(c).Elem()
	for _, f := range overrideFields {
		x, y := bv.Field(f.c), cv.Field(f.c)
		if f.comparable && x.Equal(y) || !f.comparable && reflect.DeepEqual(x.Addr().Interface(), y.Addr().Interface()) {
			continue
		}
		p := reflect.New(y.Type())
		p.Elem().Set(y)
		ov.Field(f.o).Set(p)
	}
	return o
}

// Ptr returns a pointer to v, for declaring Overrides literals.
func Ptr[T any](v T) *T { return &v }
