package config

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"baryon/internal/mem"
)

// TestTierSpecsCanonicalizeTwoTier pins the default topology: an empty Tiers
// section resolves to Table I's DDR4 over NVM, and a two-entry list swaps
// either device by preset name.
func TestTierSpecsCanonicalizeTwoTier(t *testing.T) {
	cfg := Scaled()
	specs, err := cfg.TierSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("got %d tiers, want 2", len(specs))
	}
	if specs[0].Cfg.Name != "DDR4-3200" || specs[1].Cfg.Name != "NVM" {
		t.Fatalf("canonical pair = %s/%s, want DDR4-3200/NVM", specs[0].Cfg.Name, specs[1].Cfg.Name)
	}

	cfg.Tiers = []TierConfig{{Preset: "ddr4-detailed"}, {Preset: "optane"}}
	specs, err = cfg.TierSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Cfg.DetailedTiming == nil {
		t.Fatalf("ddr4-detailed preset lost its protocol timing")
	}
	if specs[1].Cfg.Name != "Optane" {
		t.Fatalf("optane preset not resolved: got %s", specs[1].Cfg.Name)
	}
}

// TestTierSpecsThreeTier resolves an explicit DRAM+NVM+CXL topology.
func TestTierSpecsThreeTier(t *testing.T) {
	cfg := Scaled()
	cfg.Tiers = []TierConfig{
		{Preset: "ddr4"},
		{Preset: "nvm", Bytes: 64 << 20},
		{Preset: "cxl-dram"},
	}
	specs, err := cfg.TierSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("got %d tiers, want 3", len(specs))
	}
	if specs[1].Bytes != 64<<20 {
		t.Fatalf("tier 1 window = %d, want %d", specs[1].Bytes, uint64(64<<20))
	}
	if !specs[2].Cfg.CXL.Enabled() {
		t.Fatalf("cxl-dram tier lost its link params")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid three-tier config rejected: %v", err)
	}
}

// TestValidateRejections checks up-front validation fails with actionable
// messages — including the registered-preset list — instead of deep in
// construction.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"unknown tier preset", func(c *Config) {
			c.Tiers = []TierConfig{{Preset: "ddr4"}, {Preset: "hbm9"}}
		}, "registered:"},
		{"single tier", func(c *Config) {
			c.Tiers = []TierConfig{{Preset: "ddr4"}}
		}, "at least 2"},
		{"intermediate without bytes", func(c *Config) {
			c.Tiers = []TierConfig{{Preset: "ddr4"}, {Preset: "nvm"}, {Preset: "cxl-dram"}}
		}, "needs bytes"},
		{"duplicate names", func(c *Config) {
			c.Tiers = []TierConfig{{Preset: "ddr4"}, {Preset: "nvm", Bytes: 1 << 20}, {Preset: "nvm"}}
		}, "share device name"},
		{"bad cxl compression", func(c *Config) {
			c.Tiers = []TierConfig{{Preset: "ddr4"}, {Preset: "cxl-dram",
				CXL: &mem.CXLParams{LinkLatencyCycles: 10, Compression: "zip"}}}
		}, "unknown cxl compression"},
		{"no cores", func(c *Config) { c.Cores = 0 }, "want 1..64"},
		{"too many cores", func(c *Config) { c.Cores = 65 }, "want 1..64"},
		{"flat super-blocks below assoc", func(c *Config) {
			c.Mode, c.SuperBlockBlocks = ModeFlat, 2
		}, "superBlockBlocks >= assoc"},
		{"no remap-cache sets", func(c *Config) { c.RemapCacheSets = 0 }, "remapCacheSets = 0, want >= 1"},
		{"no remap-cache ways", func(c *Config) { c.RemapCacheWays = 0 }, "remapCacheWays = 0, want >= 1"},
		{"negative remap-cache ways", func(c *Config) { c.RemapCacheWays = -2 }, "remapCacheWays = -2, want >= 1"},
		{"no ways", func(c *Config) { c.Assoc = 0 }, "assoc = 0, want >= 1"},
		{"fully associative, no ways", func(c *Config) {
			c.Mode, c.FullyAssociative, c.Assoc = ModeFlat, true, 0
		}, "assoc = 0, want >= 1"},
		{"no super-block blocks", func(c *Config) { c.SuperBlockBlocks = 0 }, "superBlockBlocks = 0, want >= 1"},
		{"flat, no super-block blocks", func(c *Config) {
			c.Mode, c.SuperBlockBlocks = ModeFlat, 0
		}, "superBlockBlocks = 0, want >= 1"},
		// The geometries that used to pass and then panic in construction
		// or on the first store read.
		{"no block bytes", func(c *Config) { c.BlockBytes = 0 }, "blockBytes = 0, want a power of two from 512 to 2048"},
		{"block not a power of two", func(c *Config) { c.BlockBytes = 1000 }, "blockBytes = 1000, want a power of two"},
		{"block past the store block", func(c *Config) { c.BlockBytes = 4096 }, "blockBytes = 4096, want a power of two"},
		{"sub-block below a line", func(c *Config) { c.BlockBytes = 256 }, "blockBytes = 256, want a power of two"},
		{"no fast memory", func(c *Config) { c.FastBytes = 0 }, "fastBytes = 0, want >= stageBytes"},
		{"stage fills fast memory", func(c *Config) { c.StageBytes = c.FastBytes }, "fastBytes = 16777216, want >= stageBytes"},
		{"no slow memory", func(c *Config) { c.SlowBytes = 0 }, "slowBytes = 0, want >= superBlockBlocks * blockBytes"},
		{"no LLC", func(c *Config) { c.LLCKB = 0 }, "llcKB = 0, want >= 1"},
		{"negative LLC", func(c *Config) { c.LLCKB = -1 }, "llcKB = -1, want >= 1"},
	}
	for _, tc := range cases {
		cfg := Scaled()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted a bad config", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if err := Ptr(Scaled()).Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	// Small super-blocks stay valid in cache mode (Fig. 13(b)) and in
	// fully associative flat mode (Baryon-FA), which has one set.
	for _, fa := range []bool{false, true} {
		cfg := Scaled()
		cfg.SuperBlockBlocks, cfg.FullyAssociative = 1, fa
		if fa {
			cfg.Mode = ModeFlat
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("super-blocks of one block rejected (mode %v, fully associative %v): %v", cfg.Mode, fa, err)
		}
	}
	// The unknown-preset message must name the registry so the fix is
	// discoverable from the error alone.
	cfg := Scaled()
	cfg.Tiers = []TierConfig{{Preset: "ddr4"}, {Preset: "hbm9"}}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "cxl-dram") {
		t.Fatalf("unknown-preset error should list registered presets, got: %v", err)
	}
}

// TestOverridesTiersRoundTrip checks the wholesale-replace semantics and the
// JSON round-trip of the tiers override field.
func TestOverridesTiersRoundTrip(t *testing.T) {
	raw := `{
		"tiers": [
			{"preset": "ddr4"},
			{"preset": "nvm", "bytes": 67108864},
			{"preset": "cxl-ibex", "name": "expander",
			 "cxl": {"linkLatencyCycles": 64, "linkBytesPerCycle": 4, "internalBytesPerCycle": 6, "compression": "bdi"}}
		]
	}`
	dec := json.NewDecoder(strings.NewReader(raw))
	dec.DisallowUnknownFields()
	var o Overrides
	if err := dec.Decode(&o); err != nil {
		t.Fatal(err)
	}

	cfg := Scaled()
	cfg.Tiers = []TierConfig{{Preset: "ddr4"}, {Preset: "pcm"}} // must be replaced wholesale
	o.Apply(&cfg)
	if len(cfg.Tiers) != 3 || cfg.Tiers[2].Name != "expander" {
		t.Fatalf("tiers not replaced wholesale: %+v", cfg.Tiers)
	}
	if cfg.Tiers[2].CXL == nil || cfg.Tiers[2].CXL.Compression != "bdi" {
		t.Fatalf("tier CXL params lost in Apply: %+v", cfg.Tiers[2].CXL)
	}

	// Marshal/decode round-trip preserves the override exactly.
	out, err := json.Marshal(&o)
	if err != nil {
		t.Fatal(err)
	}
	var o2 Overrides
	if err := json.Unmarshal(out, &o2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o, o2) {
		t.Fatalf("overrides changed across JSON round-trip:\n before: %+v\n after:  %+v", o, o2)
	}
}
