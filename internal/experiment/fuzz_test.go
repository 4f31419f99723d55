package experiment

import (
	"context"
	"encoding/binary"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"baryon/internal/config"
	"baryon/internal/core"
	"baryon/internal/cpu"
	"baryon/internal/mem"
	"baryon/internal/trace"
)

// FuzzConfigRuns checks that Validate is the one gate of a run's config
// and that Register gates each kind's overrides. Its bytes pick an
// Overrides (see overridesFrom), applied to tinyConfig through
// ValidateSpec, and a kind (the byte after the overrides). For every kind,
// Register's check rejects the overrides exactly when they set a field
// outside the kind's list, and names that field. A rejected config's error
// names a JSON field of the design-file schema. An accepted one runs a few
// hundred accesses under the picked kind (a missing byte picks the first)
// without a panic, and Baryon's
// controller still satisfies CheckInvariants afterwards.
//
// The fuzz bounds what a run may cost, not what Validate accepts: the
// access budgets are clamped to a few hundred, and an accepted config
// whose tables are too large (smallEnoughToRun) is not run. One kind per
// input keeps an iteration to one simulation, so the engine's minimizer,
// which runs each of its O(len(data)^2) candidates, does not stall on
// six.
func FuzzConfigRuns(f *testing.F) {
	seeds := []config.Overrides{
		// The five geometries Validate once accepted and a run then
		// panicked on.
		{BlockBytes: config.Ptr[uint64](0)},
		{SlowBytes: config.Ptr[uint64](0)},
		{FastBytes: config.Ptr[uint64](0)},
		{BlockBytes: config.Ptr[uint64](1000)},
		{BlockBytes: config.Ptr[uint64](4096)},
		// Accepted shapes: the paper's variants, a small flat geometry with
		// windows, the smallest geometry and a CXL topology.
		{},
		{BlockBytes: config.Ptr[uint64](512)},
		{Mode: config.Ptr(config.ModeFlat), FullyAssociative: config.Ptr(true)},
		{Mode: config.Ptr(config.ModeFlat), SuperBlockBlocks: config.Ptr(4), Assoc: config.Ptr(4),
			EpochAccesses: config.Ptr(64), WarmupAccessesPerCore: config.Ptr(20), CommitK: config.Ptr(2.5)},
		{FastBytes: config.Ptr[uint64](8192), StageBytes: config.Ptr[uint64](0), Assoc: config.Ptr(1),
			BlockBytes: config.Ptr[uint64](512), SlowBytes: config.Ptr[uint64](512), SuperBlockBlocks: config.Ptr(1), LLCKB: config.Ptr(1)},
		{Tiers: &fuzzTiers[1]},
	}
	for _, o := range seeds {
		data := overrideBytes(o)
		if got := overridesFrom(data); !reflect.DeepEqual(got, o) {
			f.Fatalf("seed %+v decodes as %+v", o, got)
		}
		for k := range kinds {
			f.Add(append(slices.Clone(data), byte(k)))
		}
	}
	kindAt := len(overrideBytes(config.Overrides{}))
	base := tinyConfig()
	w, ok := trace.ByName("505.mcf_r")
	if !ok {
		f.Fatal("workload 505.mcf_r missing")
	}
	fields := jsonFieldPattern()
	f.Fuzz(func(t *testing.T, data []byte) {
		o := overridesFrom(data)
		if o.AccessesPerCore != nil {
			*o.AccessesPerCore = min(*o.AccessesPerCore, 100)
		}
		if o.WarmupAccessesPerCore != nil {
			*o.WarmupAccessesPerCore = min(*o.WarmupAccessesPerCore, 50)
		}
		set := o.SetFields()
		for _, k := range kinds {
			unread := slices.IndexFunc(set, func(f string) bool {
				return !slices.Contains(runReads, f) && !slices.Contains(k.reads, f)
			})
			err := checkSpec(DesignSpec{Name: "fuzz", Kind: k.name, Overrides: o})
			if unread < 0 && err != nil {
				t.Fatalf("%s: Register rejected overrides it reads (%v): %v", k.name, set, err)
			}
			if unread >= 0 && (err == nil || !strings.Contains(err.Error(), "overrides."+set[unread])) {
				t.Fatalf("%s: Register = %v for overrides %v, want a rejection naming %s", k.name, err, set, set[unread])
			}
		}
		if err := ValidateSpec(DesignSpec{Name: "fuzz", Kind: KindBaryon, Overrides: o}, base); err != nil {
			if !fields.MatchString(err.Error()) {
				t.Fatalf("rejection names no JSON field: %v", err)
			}
			return
		}
		cfg := base
		o.Apply(&cfg)
		if !smallEnoughToRun(cfg) {
			return
		}
		var pick byte
		if len(data) > kindAt {
			pick = data[kindAt]
		}
		kind := kinds[int(pick)%len(kinds)].name
		r := cpu.NewRunnerSource(cfg, w, FactorySpec(DesignSpec{Name: "fuzz-" + kind, Kind: kind, Overrides: o}))
		if _, err := r.RunCtx(context.Background()); err != nil {
			t.Fatalf("%s: accepted config failed to run: %v", kind, err)
		}
		if c, ok := r.Controller().(*core.Controller); ok && kind == KindBaryon {
			if msg := c.CheckInvariants(); msg != "" {
				t.Fatalf("baryon: invariant broken after an accepted config's run: %s", msg)
			}
		}
	})
}

// fuzzTiers are the topologies a fuzz input picks from: valid ones and one
// per way TierSpecs and Validate reject a tier list.
var fuzzTiers = [][]config.TierConfig{
	*cxlTiers(),
	{{Preset: "ddr4"}, {Preset: "nvm", Bytes: 1 << 20}, {Preset: "cxl-ibex"}},
	{{Preset: "ddr4-detailed"}, {Preset: "nvm"}},
	{{Preset: "ddr4"}, {Preset: "nvm", Bytes: 1}, {Preset: "cxl-dram"}},
	{{Preset: "ddr4"}},
	{{Preset: "ddr4"}, {Preset: "hbm9"}},
	{{Preset: "ddr4"}, {Preset: "nvm", Bytes: 1 << 20}, {Preset: "nvm"}},
	{{Preset: "ddr4"}, {Preset: "nvm"}, {Preset: "cxl-dram"}},
	{{Preset: "ddr4"}, {Preset: "cxl-dram", CXL: &mem.CXLParams{LinkLatencyCycles: 10, Compression: "zip"}}},
}

// overridesFrom decodes fuzz bytes into an Overrides. Each field, in
// declaration order, takes a presence byte (odd: set) and a value of the
// fixed width fuzzWidth gives its type, so a mutation of one field's bytes
// leaves the others in place; missing bytes read as zero. An int is a
// signed 32-bit value, CommitK a signed 16-bit count of quarters, and the
// tier list an index into fuzzTiers.
func overridesFrom(data []byte) config.Overrides {
	var o config.Overrides
	ov := reflect.ValueOf(&o).Elem()
	for i := 0; i < ov.NumField(); i++ {
		p := ov.Field(i)
		raw := make([]byte, 1+fuzzWidth(p.Type().Elem()))
		data = data[copy(raw, data):]
		if raw[0]&1 == 0 {
			continue
		}
		v := reflect.New(p.Type().Elem())
		switch e := v.Interface().(type) {
		case *config.Mode:
			*e = config.Mode(raw[1] & 1)
		case *bool:
			*e = raw[1]&1 == 1
		case *uint64:
			*e = binary.LittleEndian.Uint64(raw[1:])
		case *uint32:
			*e = binary.LittleEndian.Uint32(raw[1:])
		case *int:
			*e = int(int32(binary.LittleEndian.Uint32(raw[1:])))
		case *float64:
			*e = float64(int16(binary.LittleEndian.Uint16(raw[1:]))) / 4
		case *[]config.TierConfig:
			*e = slices.Clone(fuzzTiers[int(raw[1])%len(fuzzTiers)])
		}
		p.Set(v)
	}
	return o
}

// overrideBytes is overridesFrom's inverse, for seeding the corpus.
func overrideBytes(o config.Overrides) []byte {
	var out []byte
	ov := reflect.ValueOf(o)
	for i := 0; i < ov.NumField(); i++ {
		p := ov.Field(i)
		raw := make([]byte, 1+fuzzWidth(p.Type().Elem()))
		if !p.IsNil() {
			raw[0] = 1
			switch e := p.Interface().(type) {
			case *config.Mode:
				raw[1] = byte(*e)
			case *bool:
				if *e {
					raw[1] = 1
				}
			case *uint64:
				binary.LittleEndian.PutUint64(raw[1:], *e)
			case *uint32:
				binary.LittleEndian.PutUint32(raw[1:], *e)
			case *int:
				binary.LittleEndian.PutUint32(raw[1:], uint32(int32(*e)))
			case *float64:
				binary.LittleEndian.PutUint16(raw[1:], uint16(int16(*e*4)))
			case *[]config.TierConfig:
				raw[1] = byte(slices.IndexFunc(fuzzTiers, func(t []config.TierConfig) bool { return reflect.DeepEqual(t, *e) }))
			}
		}
		out = append(out, raw...)
	}
	return out
}

// fuzzWidth is the number of value bytes a field of type t takes in a fuzz
// input. A type it does not know fails the fuzz at once, so a new kind of
// override field gets a decoding before it gets fuzzed.
func fuzzWidth(t reflect.Type) int {
	switch t {
	case reflect.TypeFor[config.Mode](), reflect.TypeFor[bool](), reflect.TypeFor[[]config.TierConfig]():
		return 1
	case reflect.TypeFor[float64]():
		return 2
	case reflect.TypeFor[uint32](), reflect.TypeFor[int]():
		return 4
	case reflect.TypeFor[uint64]():
		return 8
	}
	panic("experiment: no fuzz decoding for an override of type " + t.String())
}

// jsonFieldPattern matches, as a whole word, any JSON field name a design
// file's overrides can set, including a tier's and its CXL link's.
func jsonFieldPattern() *regexp.Regexp {
	var names []string
	for _, v := range []any{config.Overrides{}, config.TierConfig{}, mem.CXLParams{}} {
		rt := reflect.TypeOf(v)
		for i := 0; i < rt.NumField(); i++ {
			if name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ","); name != "" {
				names = append(names, name)
			}
		}
	}
	return regexp.MustCompile(`\b(` + strings.Join(names, "|") + `)\b`)
}

// smallEnoughToRun bounds the table entries an accepted config makes a
// kind allocate and scan, which is what a run's cost grows with: OS blocks
// (the remap, dirty and hint arrays), fast frames (the directories, and the
// ways a fully-associative victim search scans on every miss), remap-cache
// lines and LLC lines. Byte sizes alone bound none of these: 64 MB of fast
// memory is 32k frames at 2 kB blocks and 128k at 512 B.
func smallEnoughToRun(c config.Config) bool {
	return c.OSBlocks() <= 1<<20 && c.FastBytes/c.BlockBytes <= 1<<17 &&
		c.RemapCacheSets*c.RemapCacheWays <= 1<<16 && c.LLCKB <= 4096
}
