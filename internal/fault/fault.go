// Package fault models device-level reliability for the hybrid memory
// system: seeded, deterministic injection of transient read bit-flips,
// stuck-at regions and wear-driven raw-bit-error growth on NVM, filtered
// through a per-64B-line ECC detect/correct budget. The injector attaches to
// a mem.Device; the controller-side degradation path (corrected-error
// retries with timing penalty, uncorrectable-error line remap/quarantine)
// lives in hybrid.Engine, so every design — Baryon and the baselines —
// inherits the same failure semantics instead of silently corrupting data.
//
// Determinism contract: a run's fault stream is a pure function of
// (fault.Config, run seed, access sequence). With the zero Config the
// injector is never constructed, no RNG values are drawn and no counters are
// registered, so a fault-free run is byte-identical to a build without this
// package.
package fault

import "baryon/internal/sim"

// lineBits is the ECC protection granularity: one 64 B line.
const lineBits = 64 * 8

// Region is a half-open physical address range [Addr, Addr+Size) on one
// device.
type Region struct {
	Addr uint64 `json:"addr"`
	Size uint64 `json:"size"`
}

func (r Region) contains(addr uint64) bool {
	return addr >= r.Addr && addr < r.Addr+r.Size
}

// Params is the fault model of one device.
type Params struct {
	// BER is the transient raw bit error rate per bit per read. Each 64 B
	// line read draws its flip count from a Poisson with mean 512*BER.
	BER float64 `json:"ber,omitempty"`
	// StuckAt lists regions whose lines always fail uncorrectably until the
	// controller quarantines them (manufacturing defects, dead rows).
	StuckAt []Region `json:"stuckAt,omitempty"`
	// WearUnit is the number of writes to one line per wear step; 0 disables
	// wear tracking.
	WearUnit uint64 `json:"wearUnit,omitempty"`
	// WearRBERStep is the raw bit error rate added per wear step — the
	// endurance-driven RBER ramp of NVM cells.
	WearRBERStep float64 `json:"wearRBERStep,omitempty"`
}

// Enabled reports whether the params describe any fault source.
func (p *Params) Enabled() bool {
	return p.BER > 0 || len(p.StuckAt) > 0 || (p.WearUnit > 0 && p.WearRBERStep > 0)
}

// Config configures fault injection for one run: a per-tier device model
// plus the shared ECC and degradation-path parameters. The zero value
// disables everything.
type Config struct {
	// Tiers lists the fault params of each engine tier (0 = fast). Tiers
	// beyond the list get the zero (disabled) params.
	Tiers []Params `json:"tiers,omitempty"`

	// ECCCorrectBits is the per-64B-line correction budget: up to this many
	// flipped bits are corrected (with a retry penalty), more are
	// uncorrectable and force a line remap. 0 defaults to 1 (SECDED-like).
	ECCCorrectBits int `json:"eccCorrectBits,omitempty"`

	// RetryPenalty is the extra latency (cycles) of a corrected-error retry
	// beyond the re-read itself. 0 defaults to 64.
	RetryPenalty uint64 `json:"retryPenalty,omitempty"`
	// RemapPenalty is the controller overhead (cycles) of quarantining a
	// line and redirecting it to a spare after an uncorrectable error.
	// 0 defaults to 512.
	RemapPenalty uint64 `json:"remapPenalty,omitempty"`

	// Seed salts the per-device fault RNG; it is mixed with the run seed so
	// fault streams can be varied independently of the workload.
	Seed uint64 `json:"seed,omitempty"`
}

// Enabled reports whether any device has a fault source configured.
func (c *Config) Enabled() bool {
	for i := range c.Tiers {
		if c.Tiers[i].Enabled() {
			return true
		}
	}
	return false
}

// ForTier returns the fault params of engine tier i (zero params beyond the
// Tiers list).
func (c *Config) ForTier(i int) Params {
	if i < len(c.Tiers) {
		return c.Tiers[i]
	}
	return Params{}
}

// CorrectBits returns the effective ECC correction budget.
func (c *Config) CorrectBits() int {
	if c.ECCCorrectBits <= 0 {
		return 1
	}
	return c.ECCCorrectBits
}

// RetryPenaltyCycles returns the effective corrected-retry penalty.
func (c *Config) RetryPenaltyCycles() uint64 {
	if c.RetryPenalty == 0 {
		return 64
	}
	return c.RetryPenalty
}

// RemapPenaltyCycles returns the effective uncorrectable-remap penalty.
func (c *Config) RemapPenaltyCycles() uint64 {
	if c.RemapPenalty == 0 {
		return 512
	}
	return c.RemapPenalty
}

// Class is the ECC outcome of one access.
type Class uint8

// Access outcomes, ordered by severity.
const (
	// None: every line of the access read back clean.
	None Class = iota
	// Corrected: at least one line had flips within the ECC budget; the
	// engine retries the read with a timing penalty.
	Corrected
	// Uncorrectable: at least one line exceeded the ECC budget; the engine
	// quarantines the line and refetches from the remapped spare.
	Uncorrectable
)

func (c Class) String() string {
	switch c {
	case Corrected:
		return "corrected"
	case Uncorrectable:
		return "uncorrectable"
	}
	return "none"
}

// Injector injects faults for one device. It is single-goroutine, like the
// device and the run that own it.
type Injector struct {
	p       Params
	correct int
	rng     *sim.RNG

	// wear counts writes per line (lineAddr/64 -> writes).
	wear map[uint64]uint64
	// quarantined lines have been remapped to healthy spares by the
	// controller; they no longer fault.
	quarantined map[uint64]struct{}

	suppress bool

	checked, flips        *sim.Counter
	corrected, uncorrect  *sim.Counter
	stuckHits, remaps     *sim.Counter
	retries               *sim.Counter
	wearWrites, wearSteps *sim.Counter
}

// NewInjector builds an injector for one device. seed should mix the run
// seed, the config salt and a per-device constant; scope is the device's
// stats scope (counters register under "<device>.fault.*").
func NewInjector(p Params, correctBits int, seed uint64, scope *sim.Stats) *Injector {
	s := scope.Scope("fault")
	return &Injector{
		p:           p,
		correct:     correctBits,
		rng:         sim.NewRNG(seed),
		wear:        make(map[uint64]uint64),
		quarantined: make(map[uint64]struct{}),
		checked:     s.Counter("checked"),
		flips:       s.Counter("flips"),
		corrected:   s.Counter("corrected"),
		uncorrect:   s.Counter("uncorrectable"),
		stuckHits:   s.Counter("stuckAtHits"),
		remaps:      s.Counter("remaps"),
		retries:     s.Counter("retries"),
		wearWrites:  s.Counter("wearWrites"),
		wearSteps:   s.Counter("wearSteps"),
	}
}

// Suppress toggles injection off during ECC retries and remap refetches (the
// retried read is served from corrected data or a healthy spare).
func (in *Injector) Suppress(on bool) { in.suppress = on }

// CountRetry records one corrected-error retry issued by the engine.
func (in *Injector) CountRetry() { in.retries.Inc() }

// OnWrite advances the wear counters for every line of a write. Wear is
// tracked for demand and background writes alike: fills, migrations and
// writebacks age NVM cells exactly like demand stores.
func (in *Injector) OnWrite(addr, size uint64) {
	if in.p.WearUnit == 0 {
		return
	}
	for line := addr / 64; line <= (addr+size-1)/64; line++ {
		in.wear[line]++
		in.wearWrites.Inc()
		if in.wear[line]%in.p.WearUnit == 0 {
			in.wearSteps.Inc()
		}
	}
}

// OnRead draws the fault outcome for a read of [addr, addr+size): per 64 B
// line it samples transient flips from the line's effective RBER (base +
// wear ramp), adds the stuck-at contribution, and classifies the flip count
// against the ECC budget. The access outcome is the worst line's. Suppressed
// or quarantined lines never fault.
func (in *Injector) OnRead(addr, size uint64) Class {
	if in.suppress || size == 0 {
		return None
	}
	worst := None
	for line := addr / 64; line <= (addr+size-1)/64; line++ {
		in.checked.Inc()
		if _, q := in.quarantined[line]; q {
			continue
		}
		flips := 0
		if ber := in.lineBER(line); ber > 0 {
			flips = in.rng.Poisson(float64(lineBits) * ber)
		}
		if in.stuckAt(line * 64) {
			// A stuck-at line fails beyond any ECC budget until remapped.
			in.stuckHits.Inc()
			flips += in.correct + 1
		}
		if flips == 0 {
			continue
		}
		in.flips.Add(uint64(flips))
		if flips <= in.correct {
			in.corrected.Inc()
			if worst < Corrected {
				worst = Corrected
			}
		} else {
			in.uncorrect.Inc()
			worst = Uncorrectable
		}
	}
	return worst
}

// lineBER returns the line's effective raw bit error rate: the transient
// base rate plus the wear-driven ramp.
func (in *Injector) lineBER(line uint64) float64 {
	ber := in.p.BER
	if in.p.WearUnit > 0 && in.p.WearRBERStep > 0 {
		if w := in.wear[line]; w >= in.p.WearUnit {
			ber += in.p.WearRBERStep * float64(w/in.p.WearUnit)
		}
	}
	return ber
}

func (in *Injector) stuckAt(addr uint64) bool {
	for _, r := range in.p.StuckAt {
		if r.contains(addr) {
			return true
		}
	}
	return false
}

// Quarantine remaps every line of [addr, addr+size) to a healthy spare after
// an uncorrectable error: the lines stop faulting and one remap is counted
// per newly quarantined line.
func (in *Injector) Quarantine(addr, size uint64) {
	if size == 0 {
		return
	}
	for line := addr / 64; line <= (addr+size-1)/64; line++ {
		if _, q := in.quarantined[line]; q {
			continue
		}
		in.quarantined[line] = struct{}{}
		in.remaps.Inc()
	}
}

// QuarantinedLines returns the number of lines currently remapped to spares.
func (in *Injector) QuarantinedLines() int { return len(in.quarantined) }
