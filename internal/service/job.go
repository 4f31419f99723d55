// Package service is the shared run-orchestration core every command
// launches simulations through: one Job type (design + workload + seed +
// run-shape overrides, canonicalized and content-addressed by the
// internal/report spec hash), a bounded worker pool built on
// experiment.RunPairsCtx, singleflight collapsing of concurrent identical
// submissions, and a content-addressed result store whose hits return
// byte-identical bundles without simulating. cmd/baryonsim, cmd/sweep and
// cmd/experiments share its flag plumbing and single-run wiring;
// cmd/baryonsimd serves its HTTP API; cmd/loadgen drives that API.
//
// The cache is sound because runs are deterministic: the spec hash covers
// the full design spec, every config value the run changes from the
// default, the effective run shape (mode, access budget, warmup/epoch
// windows) and the seed and workload, and bundle bytes are canonical
// (internal/report's determinism contract), so two jobs with equal hashes
// would simulate to byte-identical bundles — serving the stored bytes is
// indistinguishable from re-running.
package service

import (
	"fmt"

	"baryon/internal/config"
	"baryon/internal/experiment"
	"baryon/internal/report"
	"baryon/internal/trace"
)

// Job is one simulation request: a registered design, a named workload, the
// seed and the run-shape knobs. It is the wire schema of cmd/baryonsimd's
// submit endpoints. Anything beyond the run shape — device topologies,
// compression knobs, fault injection — belongs in the design spec, which the
// spec hash covers in full; that keeps every field that can change a result
// inside the cache key.
type Job struct {
	Design   string `json:"design"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Mode is "cache" or "flat"; empty keeps the base config's mode.
	Mode string `json:"mode,omitempty"`
	// Accesses is the per-core access budget (0 = base config default).
	Accesses int `json:"accesses,omitempty"`
	// Warmup is the per-core warmup window before measurement (0 = cold).
	Warmup int `json:"warmup,omitempty"`
	// Epoch collects a time-series snapshot every N accesses (0 = off).
	Epoch int `json:"epoch,omitempty"`
}

// Resolved is a validated, canonicalized job: the registered spec, the
// workload, the effective configuration, and the content-address (the
// canonical spec hash) identical requests share.
type Resolved struct {
	Job  Job
	Spec experiment.DesignSpec
	W    trace.Workload
	Cfg  config.Config
	Key  report.SpecKey
	Hash string
}

// resolve validates j against the design/workload registries and base, and
// computes its content-address. Two invocations that reach the same
// effective run through different spellings (e.g. an explicit access budget
// equal to the default) resolve to the same hash, because the key records
// effective post-override values.
func (j Job) resolve(base config.Config) (Resolved, error) {
	if j.Design == "" {
		return Resolved{}, fmt.Errorf("service: job has no design")
	}
	spec, ok := experiment.Lookup(j.Design)
	if !ok {
		return Resolved{}, experiment.UnknownDesignError(j.Design)
	}
	if j.Workload == "" {
		return Resolved{}, fmt.Errorf("service: job has no workload")
	}
	w, ok := trace.ByName(j.Workload)
	if !ok {
		return Resolved{}, fmt.Errorf("service: unknown workload %q", j.Workload)
	}
	if j.Accesses < 0 || j.Warmup < 0 || j.Epoch < 0 {
		return Resolved{}, fmt.Errorf("service: accesses, warmup and epoch must be >= 0")
	}
	cfg := base
	cfg.Seed = j.Seed
	switch j.Mode {
	case "":
	case "cache":
		cfg.Mode = config.ModeCache
	case "flat":
		cfg.Mode = config.ModeFlat
	default:
		return Resolved{}, fmt.Errorf("service: unknown mode %q (want cache or flat)", j.Mode)
	}
	if j.Accesses > 0 {
		cfg.AccessesPerCore = j.Accesses
	}
	cfg.WarmupAccessesPerCore = j.Warmup
	cfg.EpochAccesses = j.Epoch
	if err := experiment.ValidateSpec(spec, cfg); err != nil {
		return Resolved{}, err
	}
	key, err := report.Key(spec, cfg, w.Name)
	if err != nil {
		return Resolved{}, err
	}
	hash, err := key.Hash()
	if err != nil {
		return Resolved{}, err
	}
	return Resolved{Job: j, Spec: spec, W: w, Cfg: cfg, Key: key, Hash: hash}, nil
}
