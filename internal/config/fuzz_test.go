package config

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzOverridesJSON throws arbitrary JSON at the -design-file Overrides
// schema: anything that decodes must Apply to the base config without
// panicking, and the applied-then-marshalled form must decode again
// (no write-only states).
func FuzzOverridesJSON(f *testing.F) {
	f.Add(`{}`)
	f.Add(`{"mode": "flat", "blockBytes": 512, "subBlockBytes": 64}`)
	f.Add(`{"commitK": -1, "fullyAssociative": true}`)
	f.Add(`{"fault": {"tiers": [{}, {"ber": 1e-4, "stuckAt": [{"addr": 0, "size": 4096}]}], "eccCorrectBits": 2}}`)
	f.Add(`{"mode": "bogus"}`)
	f.Add(`{"tiers": [{"preset": "ddr4"}, {"preset": "nvm", "bytes": 67108864}, {"preset": "cxl-dram"}]}`)
	f.Add(`{"tiers": [{"preset": "ddr4"}, {"preset": "cxl-ibex", "name": "far", "cxl": {"linkLatencyCycles": 96, "linkBytesPerCycle": 8, "internalBytesPerCycle": 12, "compression": "best"}}]}`)
	f.Add(`{"fault": {"tiers": [{"ber": 1e-6}, {}, {"ber": 1e-5, "wearUnit": 4, "wearRBERStep": 1e-7}]}}`)
	f.Fuzz(func(t *testing.T, raw string) {
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.DisallowUnknownFields()
		var o Overrides
		if err := dec.Decode(&o); err != nil {
			t.Skip() // invalid JSON or unknown fields: rejected at load time
		}
		cfg := Scaled()
		if err := o.Apply(&cfg); err != nil {
			// The only representable-but-invalid state is a bad mode string;
			// anything else erroring means Apply grew an undocumented
			// failure path.
			if o.Mode == nil {
				t.Fatalf("Apply failed without a mode override: %v", err)
			}
			return
		}
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
	})
}
