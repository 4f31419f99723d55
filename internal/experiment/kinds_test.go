package experiment

import (
	"context"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"baryon/internal/config"
	"baryon/internal/datagen"
	"baryon/internal/trace"
)

// tinyConfig is a four-core machine small enough that a run of a few
// hundred accesses per core reaches capacity pressure in milliseconds: the
// fuzz target's base config and the relation tests'.
func tinyConfig() config.Config {
	cfg := config.Scaled()
	cfg.Cores = 4
	cfg.FastBytes = 2 << 20
	cfg.StageBytes = 128 << 10
	cfg.SlowBytes = 16 << 20
	cfg.LLCKB = 32
	cfg.AccessesPerCore = 100
	return cfg
}

// kindDesigns names one built-in design per kind, running the kind on the
// run config unchanged.
var kindDesigns = map[string]string{
	KindSimple: DesignSimple, KindUnison: DesignUnison, KindDICE: DesignDICE,
	KindBaryon: DesignBaryon, KindHybrid2: DesignHybrid2, KindOSPaging: DesignOSPaging,
}

// kindFlips gives every kind-specific override (one outside runReads) a
// valid value that differs from config.Scaled's.
var kindFlips = map[string]config.Overrides{
	"assoc":               {Assoc: config.Ptr(8)},
	"fullyAssociative":    {FullyAssociative: config.Ptr(true)},
	"superBlockBlocks":    {SuperBlockBlocks: config.Ptr(16)},
	"decompressLatency":   {DecompressLatency: config.Ptr[uint64](50)},
	"remapCacheSets":      {RemapCacheSets: config.Ptr(4)},
	"remapCacheWays":      {RemapCacheWays: config.Ptr(1)},
	"compressionOff":      {CompressionOff: config.Ptr(true)},
	"cachelineAligned":    {CachelineAligned: config.Ptr(false)},
	"zeroBlockOpt":        {ZeroBlockOpt: config.Ptr(false)},
	"compressedWriteback": {CompressedWriteback: config.Ptr(false)},
	"twoLevelReplacement": {TwoLevelReplacement: config.Ptr(false)},
	"commitK":             {CommitK: config.Ptr(0.0)},
	"commitAll":           {CommitAll: config.Ptr(true)},
	"useStageArea":        {UseStageArea: config.Ptr(false)},
	"stageAgeInterval":    {StageAgeInterval: config.Ptr[uint32](4)},
}

// relationWorkloads are the workloads a relation runs on: a Zipf, a
// streaming and a graph workload.
var relationWorkloads = []string{"505.mcf_r", "519.lbm_r", "pr.twi"}

func relationConfig() config.Config {
	cfg := tinyConfig()
	cfg.AccessesPerCore = 600
	return cfg
}

// TestKindListsNameOverrides pins that the kind table names only real
// override fields, each once per kind, and that every field outside
// runReads has a flip for the relation tests.
func TestKindListsNameOverrides(t *testing.T) {
	all := overrideNames()
	for _, f := range runReads {
		if !slices.Contains(all, f) {
			t.Errorf("runReads names %q, which is no overrides field", f)
		}
	}
	for _, f := range all {
		if _, ok := kindFlips[f]; !ok && !slices.Contains(runReads, f) {
			t.Errorf("overrides field %q is kind-specific but has no flip", f)
		}
	}
	for _, k := range kinds {
		if _, ok := kindDesigns[k.name]; !ok {
			t.Errorf("kind %q has no built-in design in kindDesigns", k.name)
		}
		for i, f := range k.reads {
			if !slices.Contains(all, f) || slices.Contains(runReads, f) || slices.Contains(k.reads[:i], f) {
				t.Errorf("kind %q lists %q, which is no kind-specific overrides field or is listed twice", k.name, f)
			}
		}
	}
}

// overrideNames lists every overrides field by its JSON name.
func overrideNames() []string {
	all := setting(func(string) bool { return true })
	return all.SetFields()
}

// setting returns Overrides that set, to its zero value, every field whose
// JSON name keep accepts.
func setting(keep func(name string) bool) config.Overrides {
	var o config.Overrides
	ov := reflect.ValueOf(&o).Elem()
	for i := 0; i < ov.NumField(); i++ {
		name, _, _ := strings.Cut(ov.Type().Field(i).Tag.Get("json"), ",")
		if keep(name) {
			ov.Field(i).Set(reflect.New(ov.Field(i).Type().Elem()))
		}
	}
	return o
}

// TestRegisterRejectsUnreadOverrides pins that a spec which sets overrides
// its kind does not read fails at load, naming every such field and the
// kind, and that a spec setting one field its kind reads loads.
func TestRegisterRejectsUnreadOverrides(t *testing.T) {
	for _, tc := range []struct{ kind, overrides, field string }{
		{KindDICE, `{"compressionOff":true}`, "compressionOff"},
		{KindHybrid2, `{"commitK":4,"zeroBlockOpt":true}`, "zeroBlockOpt, overrides.commitK"},
		{KindSimple, `{"commitK":1,"remapCacheSets":32,"decompressLatency":50}`,
			"decompressLatency, overrides.remapCacheSets, overrides.commitK"},
	} {
		name := "X-Unread-" + tc.kind
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := writeFile(path, `{"name":"`+name+`","kind":"`+tc.kind+`","overrides":`+tc.overrides+`}`); err != nil {
			t.Fatal(err)
		}
		_, err := LoadSpecFile(path)
		if err == nil || !strings.Contains(err.Error(), "overrides."+tc.field) || !strings.Contains(err.Error(), `kind "`+tc.kind+`"`) {
			t.Errorf("%s %s: LoadSpecFile error = %v, want one naming overrides.%s and the kind", tc.kind, tc.overrides, err, tc.field)
		}
		if IsDesign(name) {
			t.Errorf("rejected spec %q was registered", name)
		}
	}
	accepted := 0
	for _, k := range kinds {
		for _, f := range overrideNames() {
			spec := DesignSpec{Name: "X-One", Kind: k.name, Overrides: setting(func(name string) bool { return name == f })}
			err := checkSpec(spec)
			if reads := slices.Contains(runReads, f) || slices.Contains(k.reads, f); reads != (err == nil) {
				t.Errorf("kind %q, field %q: reads = %v, but checkSpec = %v", k.name, f, reads, err)
			}
			if err == nil {
				accepted++
			}
		}
	}
	if want := 90; accepted != want {
		t.Errorf("the kinds accept %d (kind, field) pairs, want %d", accepted, want)
	}
}

// runKind runs one kind's built-in design on cfg and returns what its
// bundle would record.
func runKind(t *testing.T, cfg config.Config, w trace.Workload, kind string) runMeasure {
	t.Helper()
	res, err := RunPairCtx(context.Background(), Pair{Cfg: cfg, Workload: w, Design: kindDesigns[kind]})
	if err != nil {
		t.Fatalf("%s on %s: %v", kind, w.Name, err)
	}
	return measured(res)
}

// TestUnreadOverridesDoNotMoveRuns is the relation that keeps the kind lists
// honest one way: a field outside a kind's list, flipped on the run config,
// leaves every workload's measured result byte-identical. A failure names a
// field the kind does read and Register would wrongly reject.
func TestUnreadOverridesDoNotMoveRuns(t *testing.T) {
	cfg := relationConfig()
	for _, name := range relationWorkloads {
		w, _ := trace.ByName(name)
		for _, k := range kinds {
			base := runKind(t, cfg, w, k.name)
			for f, o := range kindFlips {
				if slices.Contains(k.reads, f) {
					continue
				}
				flipped := cfg
				o.Apply(&flipped)
				if got := runKind(t, flipped, w, k.name); !reflect.DeepEqual(got, base) {
					t.Errorf("kind %q does not list %q, yet flipping it moved its run on %s", k.name, f, w.Name)
				}
			}
		}
	}
}

// TestReadOverridesMoveRuns is the other way: every kind-specific field on a
// kind's list, flipped on the run config, moves at least one counter on at
// least one workload. A failure names a field the kind accepts but cannot
// honour.
func TestReadOverridesMoveRuns(t *testing.T) {
	cfg := relationConfig()
	var ws []trace.Workload
	for _, name := range relationWorkloads {
		w, _ := trace.ByName(name)
		ws = append(ws, w)
	}
	for _, k := range kinds {
		bases := make([]runMeasure, len(ws))
		for i, w := range ws {
			bases[i] = runKind(t, cfg, w, k.name)
		}
		for _, f := range k.reads {
			flipped := cfg
			o := kindFlips[f]
			o.Apply(&flipped)
			moved := false
			for i, w := range ws {
				if moved = !reflect.DeepEqual(runKind(t, flipped, w, k.name), bases[i]); moved {
					break
				}
			}
			if !moved {
				t.Errorf("kind %q lists %q, yet flipping it moved no run on %v", k.name, f, relationWorkloads)
			}
		}
	}
}

// TestValueBlindKindsIgnoreContent is the value-blindness relation: a
// design that neither compresses nor tests for zero blocks sees addresses
// and not values, so two value mixes over one address stream give identical
// counters. DICE and default Baryon must see the difference.
func TestValueBlindKindsIgnoreContent(t *testing.T) {
	cfg := relationConfig()
	w, _ := trace.ByName(relationWorkloads[0])
	other := w
	other.Mix = datagen.Mix{Weights: [5]float64{0, 0, 0, 0, 1}}
	if other.Mix == w.Mix {
		t.Fatal("the second value mix is the workload's own")
	}
	blind := cfg
	blind.CompressionOff = true
	blind.ZeroBlockOpt = false
	blind.CompressedWriteback = false
	for _, tc := range []struct {
		kind  string
		cfg   config.Config
		blind bool
	}{
		{KindSimple, cfg, true},
		{KindUnison, cfg, true},
		{KindOSPaging, cfg, true},
		{KindBaryon, blind, true},
		{KindBaryon, cfg, false},
		{KindDICE, cfg, false},
	} {
		same := reflect.DeepEqual(runKind(t, tc.cfg, w, tc.kind), runKind(t, tc.cfg, other, tc.kind))
		if same != tc.blind {
			t.Errorf("kind %q (compressionOff=%v): identical under two value mixes = %v, want %v",
				tc.kind, tc.cfg.CompressionOff, same, tc.blind)
		}
	}
}
