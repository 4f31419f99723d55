package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"baryon/internal/config"
	"baryon/internal/cpu"
	"baryon/internal/sim"
	"baryon/internal/trace"
)

// TestDesignSpecJSONRoundTrip pins the -design-file schema: a spec with
// overrides and policy knobs survives save/load byte-for-byte at the struct
// level, and loading registers the design.
func TestDesignSpecJSONRoundTrip(t *testing.T) {
	spec := DesignSpec{
		Name: "RoundTrip-Unison",
		Kind: KindUnison,
		Overrides: config.Overrides{
			Mode:          config.Ptr(config.ModeFlat),
			BlockBytes:    config.Ptr[uint64](512),
			Assoc:         config.Ptr(8),
			NoLLCPrefetch: config.Ptr(false),
		},
		Policy: PolicySpec{Replacement: "lru"},
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, spec)
	}
	if !IsDesign(spec.Name) {
		t.Fatalf("LoadSpecFile did not register %q", spec.Name)
	}
}

// TestRegisterRejectsBadSpecs pins the load-time validation: duplicates,
// unknown kinds and unknown policies are errors, not mid-run panics.
func TestRegisterRejectsBadSpecs(t *testing.T) {
	if err := Register(DesignSpec{Name: DesignBaryon, Kind: KindBaryon}); err == nil {
		t.Fatal("Register accepted a duplicate of a built-in design")
	}
	if err := Register(DesignSpec{Name: "X-NoKind", Kind: "alien"}); err == nil {
		t.Fatal("Register accepted an unknown kind")
	}
	if err := Register(DesignSpec{Name: "X-NoPolicy", Kind: KindSimple,
		Policy: PolicySpec{Replacement: "clock"}}); err == nil {
		t.Fatal("Register accepted an unknown replacement policy")
	}
	if err := Register(DesignSpec{Kind: KindSimple}); err == nil {
		t.Fatal("Register accepted an empty name")
	}
}

// TestLoadSpecFileRejectsUnknownFields pins DisallowUnknownFields: a typo'd
// override key fails loudly instead of being silently ignored.
func TestLoadSpecFileRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "typo.json")
	if err := writeFile(path, `{"name":"X-Typo","kind":"baryon","overrides":{"blockBites":512}}`); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpecFile(path); err == nil {
		t.Fatal("LoadSpecFile accepted an unknown override field")
	}
}

// TestLoadSpecFileRejectsUnknownMode: the mode is checked when the file is
// decoded, so a bad -design-file fails at load instead of mid-batch.
func TestLoadSpecFileRejectsUnknownMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mode.json")
	if err := writeFile(path, `{"name":"X-BadMode","kind":"baryon","overrides":{"mode":"bogus"}}`); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpecFile(path); err == nil || !strings.Contains(err.Error(), `unknown mode "bogus"`) {
		t.Fatalf("LoadSpecFile(mode bogus) = %v, want an unknown-mode error", err)
	}
	if IsDesign("X-BadMode") {
		t.Fatal("a spec with an unknown mode was registered")
	}
}

// TestLoadSpecFileRejectsRemovedKeys pins that deleted override keys fail
// with an unknown-field error instead of being ignored: "tiers" replaces
// slowMemory and detailedDDR, device fault injection ("fault") is gone, the
// sub-block size is always an eighth of blockBytes, the compressor is always
// the FPC+BDI pair ("useCPack"), and the Table I latencies and MLP factor
// are constants.
func TestLoadSpecFileRejectsRemovedKeys(t *testing.T) {
	cases := []struct{ name, overrides, field string }{
		{"slowMemory", `{"slowMemory":"pcm"}`, "slowMemory"},
		{"detailedDDR", `{"detailedDDR":true}`, "detailedDDR"},
		{"fault", `{"fault":{"tiers":[{},{"ber":1e-4}]}}`, "fault"},
		{"subBlockBytes", `{"subBlockBytes":64}`, "subBlockBytes"},
		{"useCPack", `{"useCPack":true}`, "useCPack"},
		{"mlpOverlap", `{"mlpOverlap":2}`, "mlpOverlap"},
		{"stageTagLatency", `{"stageTagLatency":5}`, "stageTagLatency"},
		{"remapCacheLatency", `{"remapCacheLatency":3}`, "remapCacheLatency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			name := "X-Removed-" + tc.name
			path := filepath.Join(t.TempDir(), "removed.json")
			if err := writeFile(path, `{"name":"`+name+`","kind":"baryon","overrides":`+tc.overrides+`}`); err != nil {
				t.Fatal(err)
			}
			_, err := LoadSpecFile(path)
			if err == nil || !strings.Contains(err.Error(), `unknown field "`+tc.field+`"`) {
				t.Fatalf("LoadSpecFile error = %v, want an unknown field %q error", err, tc.field)
			}
			if IsDesign(name) {
				t.Fatalf("rejected spec %q was registered", name)
			}
		})
	}
}

// TestUnknownDesignError pins that the rejection lists the registered
// names, which is what both commands print.
func TestUnknownDesignError(t *testing.T) {
	msg := UnknownDesignError("Barion").Error()
	if !strings.Contains(msg, `"Barion"`) {
		t.Fatalf("error does not echo the bad name: %s", msg)
	}
	for _, d := range []string{DesignBaryon, DesignSimple, DesignOSPaging} {
		if !strings.Contains(msg, d) {
			t.Fatalf("error does not list %s: %s", d, msg)
		}
	}
}

// TestBuiltinSpecsMatchNames pins that every historical design name is
// registered and resolvable through the registry.
func TestBuiltinSpecsMatchNames(t *testing.T) {
	want := []string{DesignSimple, DesignUnison, DesignDICE, DesignBaryon,
		DesignBaryon64B, DesignBaryonFA, DesignHybrid2, DesignOSPaging}
	got := Designs()
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("Designs()[%d] = %q, want %q (full: %v)", i, got[i], name, got)
		}
		if _, ok := Lookup(name); !ok {
			t.Fatalf("built-in %q not registered", name)
		}
	}
}

// TestCustomSpecRunsEndToEnd registers a custom design — a Baryon variant
// with commit-all and a Simple variant with random replacement — and runs
// both through the standard harness, the same path the commands use.
func TestCustomSpecRunsEndToEnd(t *testing.T) {
	specs := []DesignSpec{
		{
			Name: "Custom-CommitAll",
			Kind: KindBaryon,
			Overrides: config.Overrides{
				CommitAll: config.Ptr(true),
			},
		},
		{
			Name:   "Custom-SimpleRandom",
			Kind:   KindSimple,
			Policy: PolicySpec{Replacement: "random"},
		},
	}
	cfg := parallelConfig()
	w, _ := trace.ByName("505.mcf_r")
	for _, spec := range specs {
		if err := Register(spec); err != nil {
			t.Fatal(err)
		}
		res := runOne(t, cfg, w, spec.Name)
		if res.Cycles == 0 || res.Instructions == 0 {
			t.Fatalf("%s: empty result %+v", spec.Name, res)
		}
	}
	// The commit-all override must actually reach the controller: with
	// CommitAll set, Baryon never evicts a stage frame to slow memory.
	res := runOne(t, cfg, w, "Custom-CommitAll")
	if res.Stats.Get("baryon.evictsToSlow") != 0 {
		t.Fatalf("CommitAll design evicted %d frames to slow memory",
			res.Stats.Get("baryon.evictsToSlow"))
	}
}

// TestSpecOverridesDoNotLeak pins that overrides apply to a copy of the run
// config: running Baryon-64B must not mutate the caller's cfg.
func TestSpecOverridesDoNotLeak(t *testing.T) {
	cfg := parallelConfig()
	before := cfg
	w, _ := trace.ByName("505.mcf_r")
	_ = runOne(t, cfg, w, DesignBaryon64B)
	if !reflect.DeepEqual(cfg, before) {
		t.Fatalf("RunPairCtx mutated the caller's config:\n got %+v\nwant %+v", cfg, before)
	}
}

// TestSpecOverridesReachTheRun pins that a design's overrides configure the
// whole run, not only its controller. The LLC's size and its prefetch
// installs belong to the cache hierarchy, which the runner builds: a Baryon
// spec that sets one must run as plain Baryon with the same value set on
// Pair.Cfg, and differently from plain Baryon.
func TestSpecOverridesReachTheRun(t *testing.T) {
	cfg := parallelConfig()
	w, _ := trace.ByName("505.mcf_r")
	plain := measured(runOne(t, cfg, w, DesignBaryon))
	for _, tc := range []struct {
		name string
		o    config.Overrides
	}{
		{"llcKB", config.Overrides{LLCKB: config.Ptr(1024)}},
		{"noLLCPrefetch", config.Overrides{NoLLCPrefetch: config.Ptr(true)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := DesignSpec{Name: "X-Run-" + tc.name, Kind: KindBaryon, Overrides: tc.o}
			if err := Register(spec); err != nil {
				t.Fatal(err)
			}
			onCfg := cfg
			tc.o.Apply(&onCfg)
			viaSpec := measured(runOne(t, cfg, w, spec.Name))
			if viaCfg := measured(runOne(t, onCfg, w, DesignBaryon)); !reflect.DeepEqual(viaSpec, viaCfg) {
				t.Errorf("the spec's override ran differently from the same value on Pair.Cfg:\nspec: %+v\ncfg:  %+v",
					viaSpec.Window, viaCfg.Window)
			}
			if reflect.DeepEqual(viaSpec, plain) {
				t.Errorf("the spec's override did not change the run")
			}
		})
	}
}

// runMeasure is everything a run's bundle records besides its spec key.
type runMeasure struct {
	Window cpu.Window
	Tiers  []string
	Stats  sim.Snapshot
}

func measured(res cpu.Result) runMeasure {
	return runMeasure{res.Window, res.TierNames, res.Stats.Delta(res.MeasureStart)}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
