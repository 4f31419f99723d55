package mem

import (
	"sort"

	"baryon/internal/compress"
	"baryon/internal/sim"
)

// This file models a CXL memory expander in front of a device: the serdes
// link adds latency to every access, transfers serialise FIFO on the link's
// bandwidth frontier, and — following IBEX — the expander-internal path
// between the link interface and the media controllers can be the real
// bottleneck. Optional expander-side compression shrinks the bytes crossing
// that internal path (the host link always carries uncompressed data; the
// expander compresses/decompresses behind it), which is exactly the
// bandwidth lever IBEX argues for.

// CXLParams configures the expander link model of one device. The zero
// value (and a nil pointer) disables the model entirely: a device with
// Enabled() == false behaves bit-identically to one without CXL support.
type CXLParams struct {
	// LinkLatencyCycles is the one-way flit latency over the serdes link in
	// CPU cycles. Demand reads pay it twice (request out, data back); writes
	// are posted and pay it once on the way in.
	LinkLatencyCycles uint64 `json:"linkLatencyCycles,omitempty"`
	// LinkBytesPerCycle is the link's transfer bandwidth. All traffic —
	// demand and background — serialises FIFO on a single link frontier.
	// 0 leaves the link un-serialised (latency only).
	LinkBytesPerCycle float64 `json:"linkBytesPerCycle,omitempty"`
	// InternalBytesPerCycle is the expander-internal bandwidth between the
	// link interface and the media (the IBEX bottleneck). A transfer
	// occupies the link for max(link time, internal time); expander-side
	// compression reduces only the internal bytes. 0 disables the internal
	// constraint.
	InternalBytesPerCycle float64 `json:"internalBytesPerCycle,omitempty"`
	// Compression selects expander-side compression for the internal path:
	// "" (off), "fpc", "bdi" or "best" (best of FPC and BDI). Sizes come
	// from the size-only estimators of internal/compress over the content
	// probe attached with Device.SetContentProbe; without a probe the
	// internal path carries the uncompressed size.
	Compression string `json:"compression,omitempty"`
}

// Enabled reports whether the params describe any link behaviour.
func (p *CXLParams) Enabled() bool {
	return p != nil && (p.LinkLatencyCycles > 0 || p.LinkBytesPerCycle > 0 ||
		p.InternalBytesPerCycle > 0)
}

// CXLCompressionModes lists the accepted Compression values.
func CXLCompressionModes() []string { return []string{"", "fpc", "bdi", "best"} }

// ValidCXLCompression reports whether name is an accepted Compression value.
func ValidCXLCompression(name string) bool {
	for _, m := range CXLCompressionModes() {
		if name == m {
			return true
		}
	}
	return false
}

// cxlEstimator returns the size-only estimator for a Compression mode, nil
// for "" or an unknown mode.
func cxlEstimator(name string) func([]byte) int {
	var fpc compress.FPC
	var bdi compress.BDI
	switch name {
	case "fpc":
		return fpc.CompressedSize
	case "bdi":
		return bdi.CompressedSize
	case "best":
		return new(compress.Compressor).CompressedSize
	}
	return nil
}

// cxlLink is the per-device expander link state.
type cxlLink struct {
	p      CXLParams
	freeAt float64 // FIFO link frontier, in cycles
	est    func([]byte) int
	probe  func(addr, size uint64) []byte

	// queueHist observes, per demand access, the cycles between issue and
	// the media seeing the request (link queueing + flit latency).
	queueHist *sim.Histogram
	// linkBytes counts bytes crossing the host link (always uncompressed);
	// internalBytes counts bytes crossing the expander-internal path (the
	// compressed size when expander-side compression is active). Their
	// ratio is the internal-bandwidth amplification IBEX removes.
	linkBytes, internalBytes *sim.Counter
}

func newCXLLink(p CXLParams, scope *sim.Stats) *cxlLink {
	return &cxlLink{
		p:             p,
		est:           cxlEstimator(p.Compression),
		queueHist:     scope.Histogram("lat.cxlQueue"),
		linkBytes:     scope.Counter("cxlLinkBytes"),
		internalBytes: scope.Counter("cxlInternalBytes"),
	}
}

// internalSize returns the bytes a transfer moves over the expander-internal
// path: the best estimated compressed size per 64 B line when expander-side
// compression is on and a content probe is attached, the raw size otherwise.
func (l *cxlLink) internalSize(addr, size uint64) uint64 {
	if l.est == nil || l.probe == nil || size == 0 {
		return size
	}
	var total uint64
	end := addr + size
	for a := addr &^ 63; a < end; a += 64 {
		line := l.probe(a, 64)
		if len(line) < 64 {
			total += 64
			continue
		}
		total += uint64(l.est(line[:64]))
	}
	return total
}

// admit reserves the link for one transfer: FIFO on the frontier, occupied
// for max(link serialisation, internal-path serialisation). It returns the
// cycle the transfer gets the link and accounts the traffic counters.
func (l *cxlLink) admit(now, addr, size uint64) float64 {
	start := float64(now)
	if l.freeAt > start {
		start = l.freeAt
	}
	occ := 0.0
	if l.p.LinkBytesPerCycle > 0 {
		occ = float64(size) / l.p.LinkBytesPerCycle
	}
	internal := l.internalSize(addr, size)
	if l.p.InternalBytesPerCycle > 0 {
		if o := float64(internal) / l.p.InternalBytesPerCycle; o > occ {
			occ = o
		}
	}
	l.freeAt = start + occ
	l.linkBytes.Add(size)
	l.internalBytes.Add(internal)
	return l.freeAt
}

// Preset registry. Names are what config.TierConfig.Preset and the
// -design-file JSON refer to.
var presetFuncs = map[string]func() Config{
	"ddr4":          DDR4Config,
	"ddr4-detailed": DDR4DetailedConfig,
	"nvm":           NVMConfig,
	"optane":        OptaneConfig,
	"pcm":           PCMConfig,
	"cxl-dram":      CXLDRAMConfig,
	"cxl-ibex":      CXLIBEXConfig,
}

// PresetByName resolves a registered device preset, reporting unknown
// names.
func PresetByName(name string) (Config, bool) {
	fn, ok := presetFuncs[name]
	if !ok {
		return Config{}, false
	}
	return fn(), true
}

// Presets lists every registered device preset name, sorted.
func Presets() []string {
	out := make([]string, 0, len(presetFuncs))
	for name := range presetFuncs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CXLDRAMConfig returns a CXL-attached DRAM expander: DDR4-class media
// behind a x8 serdes link. The ~30 ns one-way flit latency and the
// link/internal bandwidths follow the CXL-expander characterisations IBEX
// builds on: the media is fast, but every access pays the link, and the
// expander-internal path saturates before the media does.
func CXLDRAMConfig() Config {
	return Config{
		Name:     "CXL-DRAM",
		Channels: 2,
		Banks:    32,
		// DDR4-class media timing behind the link.
		RowHitLatency:  44,
		RowMissLatency: 132,
		WriteLatency:   44,
		BytesPerCycle:  8.0,
		RowBufferBytes: 2048,
		// Expander DRAM pays the serdes in energy too.
		ReadPJPerBit:  6.5,
		WritePJPerBit: 6.5,
		ActivatePJ:    535.8,
		CXL: &CXLParams{
			// ~30 ns one-way = 96 CPU cycles at 3.2 GHz.
			LinkLatencyCycles: 96,
			// x8 lanes ~ 25.6 GB/s per direction = 8 B/cycle.
			LinkBytesPerCycle: 8.0,
			// Expander-internal path: modestly above the link, below the
			// aggregate media bandwidth — the IBEX bottleneck regime.
			InternalBytesPerCycle: 12.0,
		},
	}
}

// CXLIBEXConfig returns the CXL-DRAM expander with IBEX-style expander-side
// compression: the internal path carries best-of(FPC, BDI) compressed bytes,
// raising effective internal bandwidth on compressible data.
func CXLIBEXConfig() Config {
	cfg := CXLDRAMConfig()
	cfg.Name = "CXL-IBEX"
	cfg.CXL.Compression = "best"
	return cfg
}
