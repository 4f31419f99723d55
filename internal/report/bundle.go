// Package report builds, serialises and compares deterministic run-report
// bundles: one canonical JSON artifact per (design, workload, seed,
// overrides) simulation. A bundle carries the run's identity as a canonical
// spec hash plus the full measurement-window metric state — every counter,
// float accumulator and histogram summary, the per-tier traffic breakdown
// and the CXL link/internal split — and nothing else.
//
// Determinism contract: a bundle contains no wall-clock, hostname, process
// or ordering-dependent state of any kind. Field order is fixed by the
// struct declarations, map keys are sorted by encoding/json, and floats use
// Go's shortest round-trip encoding, so two runs of the same spec produce
// byte-identical bundle files. Anything volatile (timing, environment)
// belongs next to the bundle — a log line, a CI artifact name — never in
// it. The spec hash is therefore a valid content-address for a run cache:
// same hash, same bundle bytes.
package report

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"baryon/internal/config"
	"baryon/internal/cpu"
	"baryon/internal/experiment"
	"baryon/internal/sim"
)

// SchemaVersion is the bundle format version; bump on incompatible change.
const SchemaVersion = 1

// SpecKey is the canonical identity of one run: the full design spec
// (controller kind + config overrides + policy), the run-level configuration
// delta beyond the design, the workload and the seed. Hashing its canonical
// JSON yields the content-address two runs share iff they simulate the same
// thing.
type SpecKey struct {
	Design   experiment.DesignSpec `json:"design"`
	Run      config.Overrides      `json:"run"`
	Workload string                `json:"workload"`
	Seed     uint64                `json:"seed"`
}

// Key builds the SpecKey for one run. The Run section records every value
// cfg changes from config.Scaled (a harness's stage-size sweep point, a
// CLI's LLC size), compared after the design's own overrides are applied to
// both, so a design that pins a field hides cfg's value for it. It then
// records the effective run shape — mode, access budget, warmup and epoch
// windows — explicitly, so a default-config key names its run shape and two
// invocations that reach the same effective configuration through
// different flag spellings get the same key. The error is always nil: the
// signature stays only because the end-to-end benchmark module (bench/)
// compiles against it.
func Key(spec experiment.DesignSpec, cfg config.Config, workload string) (SpecKey, error) {
	base, eff := config.Scaled(), cfg
	spec.Overrides.Apply(&base)
	spec.Overrides.Apply(&eff)
	run := config.Diff(&base, &eff)
	run.Mode = config.Ptr(eff.Mode)
	run.AccessesPerCore = config.Ptr(eff.AccessesPerCore)
	run.WarmupAccessesPerCore = config.Ptr(eff.WarmupAccessesPerCore)
	run.EpochAccesses = config.Ptr(eff.EpochAccesses)
	return SpecKey{Design: spec, Run: run, Workload: workload, Seed: eff.Seed}, nil
}

// CanonicalJSON returns the canonical byte encoding of the key: compact
// JSON with declaration-ordered fields and sorted map keys — the exact
// bytes the spec hash covers.
func (k SpecKey) CanonicalJSON() ([]byte, error) { return json.Marshal(k) }

// Hash returns the canonical spec hash, "sha256:" + hex of the SHA-256 of
// CanonicalJSON. This is the key a content-addressed run cache indexes on.
func (k SpecKey) Hash() (string, error) {
	data, err := k.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// TierTraffic is one tier's traffic total in a bundle.
type TierTraffic struct {
	Name  string `json:"name"`
	Bytes uint64 `json:"bytes"`
}

// EpochsRef records the length of a run's epoch time-series without
// inlining it, so the bundle stays small and byte-stable; the series itself
// is a separate artifact (baryonsim -epoch-csv).
type EpochsRef struct {
	Count int `json:"count"`
}

// Bundle is the deterministic run-report artifact. All metric sections are
// measurement-window deltas (warmup excluded), matching the Result headline
// accounting.
type Bundle struct {
	Schema   int     `json:"schema"`
	SpecHash string  `json:"specHash"`
	Spec     SpecKey `json:"spec"`

	Cycles        uint64  `json:"cycles"`
	Instructions  uint64  `json:"instructions"`
	IPC           float64 `json:"ipc"`
	FastServeRate float64 `json:"fastServeRate"`
	BloatFactor   float64 `json:"bloatFactor"`
	EnergyPJ      float64 `json:"energyPJ"`
	FastBytes     uint64  `json:"fastBytes"`
	SlowBytes     uint64  `json:"slowBytes"`

	// Tiers is the per-tier traffic breakdown of N-tier runs (empty on the
	// classic two-tier pair); the CXL fields split expander traffic into
	// host-link and expander-internal bytes.
	Tiers            []TierTraffic `json:"tiers,omitempty"`
	CXLLinkBytes     uint64        `json:"cxlLinkBytes,omitempty"`
	CXLInternalBytes uint64        `json:"cxlInternalBytes,omitempty"`

	// Counters/Floats are the full measurement-window registry deltas;
	// Hists digests every non-empty histogram into the standard percentile
	// summary.
	Counters map[string]uint64          `json:"counters"`
	Floats   map[string]float64         `json:"floats"`
	Hists    map[string]sim.HistSummary `json:"hists,omitempty"`

	Epochs *EpochsRef `json:"epochs,omitempty"`
}

// New builds the bundle for one completed run: the key's hash plus the
// measurement-window delta of every registered metric.
func New(key SpecKey, res cpu.Result) (Bundle, error) {
	if res.Stats == nil {
		return Bundle{}, fmt.Errorf("report: result for %s/%s has no stats registry", key.Design.Name, key.Workload)
	}
	hash, err := key.Hash()
	if err != nil {
		return Bundle{}, err
	}
	d := res.Stats.Delta(res.MeasureStart)
	b := Bundle{
		Schema:        SchemaVersion,
		SpecHash:      hash,
		Spec:          key,
		Cycles:        res.Cycles,
		Instructions:  res.Instructions,
		IPC:           res.IPC(),
		FastServeRate: res.FastServeRate,
		BloatFactor:   res.BloatFactor,
		EnergyPJ:      res.EnergyPJ,
		FastBytes:     res.FastBytes,
		SlowBytes:     res.SlowBytes,

		CXLLinkBytes:     res.CXLLinkBytes,
		CXLInternalBytes: res.CXLInternalBytes,

		Counters: make(map[string]uint64),
		Floats:   make(map[string]float64),
		Hists:    make(map[string]sim.HistSummary),
	}
	for _, name := range d.CounterNames() {
		b.Counters[name] = d.Get(name)
	}
	for _, name := range d.FloatNames() {
		b.Floats[name] = d.GetFloat(name)
	}
	for _, name := range d.HistNames() {
		h, _ := d.Hist(name)
		if h.Count() == 0 {
			continue
		}
		b.Hists[name] = h.Summary()
	}
	for i, name := range res.TierNames {
		b.Tiers = append(b.Tiers, TierTraffic{Name: name, Bytes: res.TierBytes[i]})
	}
	if len(res.Epochs) > 0 {
		b.Epochs = &EpochsRef{Count: len(res.Epochs)}
	}
	return b, nil
}

// MarshalCanonical renders the bundle as its canonical file bytes: indented
// JSON with a trailing newline. Two bundles of identical content marshal to
// identical bytes.
func (b Bundle) MarshalCanonical() ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile writes the bundle's canonical bytes to path.
func WriteFile(path string, b Bundle) error {
	data, err := b.MarshalCanonical()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Decode parses bundle bytes, rejecting unknown fields, foreign schema
// versions and anything but whitespace after the bundle, so corrupt or
// future-format data fails loudly instead of diffing as a wall of spurious
// findings. It is the single strict entry point for untrusted bundle bytes
// (files, cache entries, fuzz inputs).
func Decode(data []byte) (Bundle, error) {
	var b Bundle
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return Bundle{}, err
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return Bundle{}, fmt.Errorf("bundle is followed by %d byte(s) of trailing data", len(rest))
	}
	if b.Schema != SchemaVersion {
		return Bundle{}, fmt.Errorf("bundle schema %d, this build reads %d", b.Schema, SchemaVersion)
	}
	return b, nil
}

// ReadFile loads a bundle via Decode's strict parsing.
func ReadFile(path string) (Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Bundle{}, err
	}
	b, err := Decode(data)
	if err != nil {
		return Bundle{}, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// PairID is the human identity bundles are matched by when diffing
// directories: design, workload, seed and the key's Run overrides other
// than the run shape (mode, access budget, warmup and epoch windows), which
// a cross-commit comparison deliberately ignores. A sweep's points (one
// stage size each, say) are therefore distinct pairs, and a default-config
// run is just "<design>/<workload>/seed<N>".
func (b Bundle) PairID() string {
	id := fmt.Sprintf("%s/%s/seed%d", b.Spec.Design.Name, b.Spec.Workload, b.Spec.Seed)
	run := b.Spec.Run
	run.Mode, run.AccessesPerCore, run.WarmupAccessesPerCore, run.EpochAccesses = nil, nil, nil, nil
	if cfg, err := json.Marshal(run); err == nil && string(cfg) != "{}" {
		id += " " + string(cfg)
	}
	return id
}

// FileName returns the conventional bundle file name:
// "<design>__<workload>__seed<seed>__<hash>.bundle.json", where <hash> is
// the first 12 hex digits of the spec hash, so runs that differ only in
// configuration (a sweep's points) get distinct files. Path-hostile
// characters are sanitised.
func FileName(b Bundle) string {
	hash := strings.TrimPrefix(b.SpecHash, "sha256:")
	if len(hash) > 12 {
		hash = hash[:12]
	}
	return fmt.Sprintf("%s__%s__seed%d__%s.bundle.json",
		sanitize(b.Spec.Design.Name), sanitize(b.Spec.Workload), b.Spec.Seed, hash)
}

// sanitize rewrites a name for file-system use: anything outside
// [A-Za-z0-9._-] becomes '-'.
func sanitize(s string) string {
	var out strings.Builder
	out.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			out.WriteByte(c)
		default:
			out.WriteByte('-')
		}
	}
	return out.String()
}
