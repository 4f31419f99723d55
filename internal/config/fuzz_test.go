package config

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzOverridesJSON throws arbitrary JSON at the -design-file Overrides
// schema: anything that decodes must Apply to the base config without
// panicking, the applied-then-marshalled form must decode again (no
// write-only states), and a mode must re-marshal to the name it was
// decoded from.
func FuzzOverridesJSON(f *testing.F) {
	f.Add(`{}`)
	f.Add(`{"mode": "flat", "blockBytes": 512}`)
	f.Add(`{"commitK": -1, "fullyAssociative": true}`)
	f.Add(`{"remapCacheSets": 128, "remapCacheWays": 4, "superBlockBlocks": 4, "llcKB": 128, "noLLCPrefetch": true}`)
	f.Add(`{"mode": "bogus"}`)
	f.Add(`{"tiers": [{"preset": "ddr4"}, {"preset": "nvm", "bytes": 67108864}, {"preset": "cxl-dram"}]}`)
	f.Add(`{"tiers": [{"preset": "ddr4"}, {"preset": "cxl-ibex", "name": "far", "cxl": {"linkLatencyCycles": 96, "linkBytesPerCycle": 8, "internalBytesPerCycle": 12, "compression": "best"}}]}`)
	f.Add(`{"commitAll": true, "useStageArea": false, "stageAgeInterval": 16, "decompressLatency": 9}`)
	f.Fuzz(func(t *testing.T, raw string) {
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.DisallowUnknownFields()
		var o Overrides
		if err := dec.Decode(&o); err != nil {
			return // invalid JSON, unknown fields or an unknown mode: rejected at load time
		}
		cfg := Scaled()
		o.Apply(&cfg)
		// The applied overrides must survive re-marshalling: Overrides is
		// the serialized half of a design spec.
		out, err := json.Marshal(&o)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		var o2 Overrides
		if err := json.Unmarshal(out, &o2); err != nil {
			t.Fatalf("re-decode of marshalled overrides failed: %v\njson: %s", err, out)
		}
		if o.Mode != nil {
			var in, again struct{ Mode string }
			if json.Unmarshal([]byte(raw), &in) != nil || json.Unmarshal(out, &again) != nil || again.Mode != in.Mode {
				t.Fatalf("mode %q re-marshalled as %s", in.Mode, out)
			}
		}
	})
}
