// Package experiment regenerates every table and figure of the paper's
// evaluation (Section IV): the Fig. 3 stage-area access breakdowns, the
// Fig. 4 stage-phase stability distributions, the Fig. 9/10 performance
// comparisons, the Fig. 11 serve-rate and bandwidth-bloat analysis, the
// Fig. 12 compression ablations, the Fig. 13 design-parameter sweeps, the
// Table I configuration/budget summary, and the Section IV-B energy
// comparison. Each harness prints the same rows/series the paper reports.
package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"

	"baryon/internal/baselines"
	"baryon/internal/config"
	"baryon/internal/core"
	"baryon/internal/cpu"
	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

// Design names used throughout the harnesses.
const (
	DesignSimple    = "Simple"
	DesignUnison    = "UnisonCache"
	DesignDICE      = "DICE"
	DesignBaryon    = "Baryon"
	DesignBaryon64B = "Baryon-64B"
	DesignBaryonFA  = "Baryon-FA"
	DesignHybrid2   = "Hybrid2"
	DesignOSPaging  = "OSPaging"
	// Three-tier variants: the same controllers over the DRAM + NVM +
	// CXL-expander topology (see cxlTiers).
	DesignBaryonCXL = "Baryon-CXL"
	DesignUnisonCXL = "UnisonCache-CXL"
	DesignDICECXL   = "DICE-CXL"
)

// cxlTiers is the canonical DRAM+NVM+CXL topology the three-tier built-ins
// share: the lower 8 MB of the canonical far space stays on NVM and the
// remainder spills to a CXL-attached DRAM expander behind a flit link. The
// window is deliberately smaller than the workloads' footprints (tens of MB
// at the scaled config) so both far tiers see real traffic. Each call
// returns a fresh slice so one design's overrides can never alias
// another's.
func cxlTiers() *[]config.TierConfig {
	return config.Ptr([]config.TierConfig{
		{Preset: "ddr4"},
		{Preset: "nvm", Bytes: 8 << 20},
		{Preset: "cxl-dram"},
	})
}

// Controller kinds a DesignSpec can name. A kind selects the controller
// implementation; everything else about a design is configuration.
const (
	KindSimple   = "simple"
	KindUnison   = "unison"
	KindDICE     = "dice"
	KindBaryon   = "baryon"
	KindHybrid2  = "hybrid2"
	KindOSPaging = "ospaging"
)

// kindDef is one controller kind: its constructor and what it reads of a
// spec. Register accepts only the overrides a kind reads, so a setting that
// cannot change a run cannot change its spec key either.
type kindDef struct {
	name string
	// reads names, by their JSON names, the overrides fields the kind's
	// controller reads beyond runReads.
	reads []string
	// replacement is whether the kind takes policy.replacement.
	replacement bool
	build       func(cfg config.Config, k kit) hybrid.Controller
}

// kit is what a kind's constructor gets beside the config.
type kit struct {
	store *hybrid.Store
	stats *sim.Stats
	tiers []hybrid.TierSpec
	rep   hybrid.Replacer
}

// runReads are the overrides every kind reads because the runner reads
// them: the geometry sizes the workload footprint (TraceFastBlocks) and the
// OS space (OSBlocks), the LLC is the runner's, the run shape is the
// replay's, and the tier list reaches every controller.
var runReads = []string{"mode", "fastBytes", "slowBytes", "stageBytes", "blockBytes",
	"llcKB", "noLLCPrefetch", "accessesPerCore", "warmupAccessesPerCore", "epochAccesses", "tiers"}

// kinds is the one list of controller kinds, in declaration order. Adding a
// kind is one row here.
var kinds = []kindDef{
	{name: KindSimple, reads: []string{"assoc"}, replacement: true,
		build: func(cfg config.Config, k kit) hybrid.Controller {
			return baselines.NewSimple(cfg.FastBytes/hybrid.BlockSize, cfg.Assoc, k.rep, k.stats, k.tiers)
		}},
	{name: KindUnison, reads: []string{"assoc"}, replacement: true,
		build: func(cfg config.Config, k kit) hybrid.Controller {
			return baselines.NewUnison(cfg.FastBytes/hybrid.BlockSize, cfg.Assoc, k.rep, k.stats, cfg.Seed, k.tiers)
		}},
	{name: KindDICE, reads: []string{"decompressLatency"},
		build: func(cfg config.Config, k kit) hybrid.Controller {
			return baselines.NewDICE(cfg.FastBytes, k.store, k.stats, cfg.DecompressLatency, k.tiers)
		}},
	{name: KindBaryon, reads: []string{"assoc", "fullyAssociative", "superBlockBlocks", "decompressLatency",
		"remapCacheSets", "remapCacheWays", "compressionOff", "cachelineAligned", "zeroBlockOpt",
		"compressedWriteback", "twoLevelReplacement", "commitK", "commitAll", "useStageArea", "stageAgeInterval"},
		build: func(cfg config.Config, k kit) hybrid.Controller { return core.New(cfg, k.store, k.stats) }},
	// Hybrid2 is Baryon's machinery under baselines.Hybrid2Config, which
	// pins fullyAssociative, compressionOff, cachelineAligned, zeroBlockOpt,
	// compressedWriteback and commitK. Fully associative, it has no sets for
	// assoc to size; uncompressed, it never pays decompressLatency; and with
	// k = 0 the stage miss counters that stageAgeInterval ages never reach
	// a commit decision (Eq. 1).
	{name: KindHybrid2, reads: []string{"superBlockBlocks", "remapCacheSets", "remapCacheWays",
		"twoLevelReplacement", "commitAll", "useStageArea"},
		build: func(cfg config.Config, k kit) hybrid.Controller { return baselines.NewHybrid2(cfg, k.store, k.stats) }},
	{name: KindOSPaging,
		build: func(cfg config.Config, k kit) hybrid.Controller {
			return baselines.NewOSPaging(cfg.FastBytes, k.stats, k.tiers)
		}},
}

// kindOf returns the table row of a kind name.
func kindOf(name string) (*kindDef, bool) {
	for i := range kinds {
		if kinds[i].name == name {
			return &kinds[i], true
		}
	}
	return nil, false
}

// PolicySpec holds controller policy knobs that are not Config fields.
type PolicySpec struct {
	// Replacement selects the replacement policy for kinds that expose one
	// (simple, unison): "", "lru", "fifo", "random" or "two-level". Empty
	// keeps the kind's default.
	Replacement string `json:"replacement,omitempty"`
}

// DesignSpec is the declarative definition of a design: a name, a
// controller kind, the configuration overrides that distinguish it from the
// base config, and policy knobs. Every design the harnesses and commands
// run — built-in or loaded from a -design-file — is one of these; there is
// no hardcoded design switch anywhere else.
type DesignSpec struct {
	Name      string           `json:"name"`
	Kind      string           `json:"kind"`
	Overrides config.Overrides `json:"overrides,omitempty"`
	Policy    PolicySpec       `json:"policy,omitempty"`
}

// builtinSpecs declares the paper's designs. The baselines get the full
// fast-memory capacity (they reserve no stage area); Baryon variants are
// the baryon kind plus the overrides the paper names them by.
var builtinSpecs = []DesignSpec{
	{Name: DesignSimple, Kind: KindSimple},
	{Name: DesignUnison, Kind: KindUnison},
	{Name: DesignDICE, Kind: KindDICE},
	{Name: DesignBaryon, Kind: KindBaryon},
	{Name: DesignBaryon64B, Kind: KindBaryon, Overrides: config.Overrides{
		BlockBytes: config.Ptr[uint64](512),
	}},
	{Name: DesignBaryonFA, Kind: KindBaryon, Overrides: config.Overrides{
		FullyAssociative: config.Ptr(true),
		Mode:             config.Ptr(config.ModeFlat),
	}},
	{Name: DesignHybrid2, Kind: KindHybrid2},
	{Name: DesignOSPaging, Kind: KindOSPaging},
	{Name: DesignBaryonCXL, Kind: KindBaryon, Overrides: config.Overrides{Tiers: cxlTiers()}},
	{Name: DesignUnisonCXL, Kind: KindUnison, Overrides: config.Overrides{Tiers: cxlTiers()}},
	{Name: DesignDICECXL, Kind: KindDICE, Overrides: config.Overrides{Tiers: cxlTiers()}},
}

var registry = struct {
	sync.RWMutex
	specs map[string]DesignSpec
	order []string
}{specs: make(map[string]DesignSpec)}

func init() {
	for _, s := range builtinSpecs {
		if err := Register(s); err != nil {
			panic(err)
		}
	}
}

// Register adds a design to the registry. It rejects empty or duplicate
// names, unknown kinds, overrides the kind does not read, and unknown or
// unsupported replacement policies, so a bad -design-file fails at load
// time rather than mid-run or under a key naming a run that never happened.
func Register(spec DesignSpec) error {
	if err := checkSpec(spec); err != nil {
		return err
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.specs[spec.Name]; dup {
		return fmt.Errorf("experiment: design %q already registered", spec.Name)
	}
	registry.specs[spec.Name] = spec
	registry.order = append(registry.order, spec.Name)
	return nil
}

// checkSpec is Register's check of a spec on its own, before the registry
// is consulted. Beyond a name, a known kind and a known replacement policy,
// it rejects what the kind cannot honour: overrides the kind does not read,
// or a replacement policy on a kind that takes none.
func checkSpec(spec DesignSpec) error {
	if spec.Name == "" {
		return fmt.Errorf("experiment: design spec has no name")
	}
	k, ok := kindOf(spec.Kind)
	if !ok {
		return fmt.Errorf("experiment: design %q has unknown kind %q (want %s)",
			spec.Name, spec.Kind, strings.Join(Kinds(), ", "))
	}
	if _, ok := hybrid.ReplacerByName(spec.Policy.Replacement, 0); !ok {
		return fmt.Errorf("experiment: design %q has unknown replacement policy %q",
			spec.Name, spec.Policy.Replacement)
	}
	var unread []string
	for _, f := range spec.Overrides.SetFields() {
		if !slices.Contains(runReads, f) && !slices.Contains(k.reads, f) {
			unread = append(unread, "overrides."+f)
		}
	}
	if len(unread) > 0 {
		return fmt.Errorf("experiment: design %q sets %s, which kind %q does not read (it reads %s)",
			spec.Name, strings.Join(unread, ", "), k.name, strings.Join(append(slices.Clone(runReads), k.reads...), ", "))
	}
	if spec.Policy.Replacement != "" && !k.replacement {
		return fmt.Errorf("experiment: design %q: kind %q has no replacement-policy knob",
			spec.Name, k.name)
	}
	return nil
}

// Kinds lists the controller kinds Register accepts.
func Kinds() []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.name
	}
	return out
}

// Designs lists every registered design name: the built-ins in declaration
// order, then any loaded designs in registration order.
func Designs() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, len(registry.order))
	copy(out, registry.order)
	return out
}

// Lookup returns the registered spec for a design name.
func Lookup(name string) (DesignSpec, bool) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.specs[name]
	return s, ok
}

// IsDesign reports whether name is a registered design, letting tools
// validate user input up front instead of panicking mid-run.
func IsDesign(name string) bool {
	_, ok := Lookup(name)
	return ok
}

// UnknownDesignError formats the standard rejection for an unregistered
// design name, listing every registered name (shared by the commands so the
// error reads the same everywhere).
func UnknownDesignError(name string) error {
	known := Designs()
	sorted := make([]string, len(known))
	copy(sorted, known)
	sort.Strings(sorted)
	return fmt.Errorf("unknown design %q; registered designs: %s",
		name, strings.Join(sorted, ", "))
}

// LoadSpecFile reads a DesignSpec from a JSON file (the -design-file
// format) and registers it. It returns the spec so callers can run it by
// name.
func LoadSpecFile(path string) (DesignSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return DesignSpec{}, err
	}
	var spec DesignSpec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return DesignSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	if err := Register(spec); err != nil {
		return DesignSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// ValidateSpec checks the part of a spec that Register cannot see because
// it depends on the run configuration: the config with the overrides
// applied must be valid. The Ctx runners check it before building a
// controller so a bad spec surfaces as a per-pair error instead of a mid-run
// panic.
func ValidateSpec(spec DesignSpec, cfg config.Config) error {
	_, err := resolve(spec, cfg)
	return err
}

// resolve returns a run's effective config, cfg with the spec's overrides
// applied, once it is valid.
func resolve(spec DesignSpec, cfg config.Config) (config.Config, error) {
	spec.Overrides.Apply(&cfg)
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("experiment: design %q: %w", spec.Name, err)
	}
	return cfg, nil
}

// FactorySpec returns the controller factory for a spec: it applies the
// spec's config overrides and builds the kind's controller on the shared kit
// with the spec's policy knobs. The panics below are programmer-error
// invariants — Register and ValidateSpec reject every user-reachable bad
// spec first — and the harness's per-pair panic isolation contains them
// regardless.
func FactorySpec(spec DesignSpec) cpu.ControllerFactory {
	return func(cfg config.Config, store *hybrid.Store, stats *sim.Stats) hybrid.Controller {
		k, ok := kindOf(spec.Kind)
		if !ok {
			panic("experiment: unknown kind " + spec.Kind)
		}
		spec.Overrides.Apply(&cfg)
		// The tier list reaches every kind: Baryon/Hybrid2 resolve it inside
		// core.New from the config; the other baselines take it directly.
		tiers, err := cfg.TierSpecs()
		if err != nil {
			panic("experiment: design " + spec.Name + ": " + err.Error())
		}
		rep, ok := hybrid.ReplacerByName(spec.Policy.Replacement, cfg.Seed)
		if !ok {
			panic("experiment: design " + spec.Name + ": unknown replacement policy " + spec.Policy.Replacement)
		}
		ctrl := k.build(cfg, kit{store: store, stats: stats, tiers: tiers, rep: rep})
		// CXL expander-side compression estimates over the canonical store
		// content; on topologies without a CXL tier the probe is never
		// consulted and the attach is a no-op.
		ctrl.Engine().SetContentProbe(func(addr, size uint64) []byte {
			return store.Line(addr)
		})
		return ctrl
	}
}
