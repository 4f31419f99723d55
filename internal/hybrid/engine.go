package hybrid

import (
	"fmt"

	"baryon/internal/fault"
	"baryon/internal/mem"
	"baryon/internal/obs"
	"baryon/internal/sim"
)

// Tier is one device in the engine's ordered tier list. Tier 0 is the near
// (fast) tier; tiers 1..n-1 partition the far address space in order: each
// intermediate far tier owns a window of Bytes() canonical far addresses and
// the last tier is the catch-all for everything beyond. With exactly two
// tiers the far space maps to tier 1 unchanged, which is what keeps the
// historical two-tier behaviour bit-identical.
type Tier struct {
	name  string
	dev   *mem.Device
	bytes uint64 // far-window capacity; 0 on tier 0 and on the catch-all
	base  uint64 // first canonical far address this tier owns (tiers >= 1)

	// lat observes demand-read latency for tiers beyond the classic two
	// ("lat.tier<i>", registered by InstrumentLatency only when the engine
	// has more than two tiers).
	lat *sim.Histogram
}

// Name returns the tier's device name.
func (t *Tier) Name() string { return t.name }

// Device returns the tier's memory device.
func (t *Tier) Device() *mem.Device { return t.dev }

// TierSpec describes one tier when building an engine: the device config
// plus, for intermediate far tiers, the capacity window it serves. Bytes is
// ignored on tier 0 and on the last tier (the catch-all).
type TierSpec struct {
	Cfg   mem.Config
	Bytes uint64
}

// Engine is the shared migration/writeback engine of the controller kit: it
// owns the ordered memory-tier list of the hybrid system and issues all
// device traffic on behalf of a controller, with the instrumentation
// middleware — the per-design "lat.fastHit"/"lat.slowPath" read-latency
// histograms, the writeback counter and the request-lifecycle tracer hooks —
// attached once here instead of being re-implemented by every controller.
//
// Controllers address the far space canonically; the engine routes each far
// access to the owning tier and rebases it into that device's local address
// space. The *Fast/*Slow traffic methods address tier 0 and the far space
// (with far routing underneath), so a controller needs no changes to run on
// a three-tier topology.
//
// Demand reads go through FastRead/SlowRead (critical path, returns the
// completion cycle); fills, writebacks and migrations go through the
// background methods, which model traffic that drains into idle bus cycles
// (see mem.Device.AccessBackground).
type Engine struct {
	tiers []*Tier
	stats *sim.Stats

	latFast, latSlow *sim.Histogram
	writebacks       *sim.Counter
	tracer           *obs.Tracer

	// Fault-degradation path (EnableFaults). faultsOn keeps the fault-free
	// hot path on a single branch; with it false the engine is
	// bit-identical to a build without fault support.
	faultsOn     bool
	retryPenalty uint64
	remapPenalty uint64
	latRetry     map[*mem.Device]*sim.Histogram
}

// NewEngineTiers builds the engine over an ordered tier list. Devices are
// constructed (and their counters registered) in tier order. At least two
// tiers are required; intermediate far tiers (1..n-2) must declare a Bytes
// window. Both are programming errors at this layer — config.TierSpecs
// validates user input before it gets here.
func NewEngineTiers(specs []TierSpec, stats *sim.Stats) *Engine {
	if len(specs) < 2 {
		panic(fmt.Sprintf("hybrid: engine needs at least 2 tiers, got %d", len(specs)))
	}
	e := &Engine{stats: stats, tiers: make([]*Tier, 0, len(specs))}
	var base uint64
	for i, spec := range specs {
		t := &Tier{
			name:  spec.Cfg.Name,
			dev:   mem.NewDevice(spec.Cfg, stats),
			bytes: spec.Bytes,
		}
		if i >= 1 {
			t.base = base
			if i < len(specs)-1 {
				if spec.Bytes == 0 {
					panic(fmt.Sprintf("hybrid: intermediate far tier %d (%s) needs a Bytes window", i, t.name))
				}
				base += spec.Bytes
			}
		}
		e.tiers = append(e.tiers, t)
	}
	return e
}

// Tiers returns the ordered tier list.
func (e *Engine) Tiers() []*Tier { return e.tiers }

// farFor routes a canonical far address to its owning tier and the
// device-local address. With two tiers this is the identity onto tier 1.
func (e *Engine) farFor(addr uint64) (*Tier, uint64) {
	last := len(e.tiers) - 1
	for _, t := range e.tiers[1:last] {
		if addr < t.base+t.bytes {
			return t, addr - t.base
		}
	}
	t := e.tiers[last]
	return t, addr - t.base
}

// tierFaultSalt keeps each tier's fault stream independent. Tiers 0 and 1
// keep their historical salts (part of the determinism contract pinned by
// the fault goldens); higher tiers get fixed derived constants.
func tierFaultSalt(i int) uint64 {
	switch i {
	case 0:
		return 0xFA57FA57
	case 1:
		return 0x510A510A
	}
	return 0x71E20000 + uint64(i)
}

// EnableFaults attaches seeded fault injectors to the tiers that have a
// fault source configured and arms the engine's degradation path: demand
// reads whose ECC outcome is Corrected are retried once (injection
// suppressed) with a timing penalty; Uncorrectable reads quarantine the
// affected lines in the injector (the line-remap-to-spare of a real
// controller) and refetch from the spare. All outcomes land in the
// "<device>.fault.*" counters and the "<device>.fault.lat.retry"
// histograms. A no-op when fc describes no fault source.
func (e *Engine) EnableFaults(fc fault.Config, seed uint64) {
	if !fc.Enabled() {
		return
	}
	e.faultsOn = true
	e.retryPenalty = fc.RetryPenaltyCycles()
	e.remapPenalty = fc.RemapPenaltyCycles()
	e.latRetry = make(map[*mem.Device]*sim.Histogram, len(e.tiers))
	for i, t := range e.tiers {
		p := fc.ForTier(i)
		if !p.Enabled() {
			continue
		}
		scope := e.stats.Scope(t.dev.Config().Name)
		t.dev.SetFaults(fault.NewInjector(p, fc.CorrectBits(), seed^fc.Seed^tierFaultSalt(i), scope))
		e.latRetry[t.dev] = scope.Histogram("fault.lat.retry")
	}
}

// SetContentProbe attaches a content probe, addressed canonically, to every
// tier device: each tier's probe re-adds its base so a CXL expander's
// compression estimator sees the bytes actually stored at the canonical
// address it serves. Only CXL devices consult the probe; on the rest the
// attach is a no-op. Nil detaches.
func (e *Engine) SetContentProbe(fn func(addr, size uint64) []byte) {
	for _, t := range e.tiers {
		if fn == nil {
			t.dev.SetContentProbe(nil)
			continue
		}
		base := t.base
		t.dev.SetContentProbe(func(addr, size uint64) []byte {
			return fn(addr+base, size)
		})
	}
}

// demandRead issues one demand read and applies the ECC degradation path to
// its outcome.
func (e *Engine) demandRead(d *mem.Device, issue, addr, size uint64) uint64 {
	done := d.Access(issue, addr, size, false)
	if !e.faultsOn {
		return done
	}
	switch d.TakeFault() {
	case fault.Corrected:
		// ECC caught flips within budget: the controller re-reads the line
		// and pays the correction pipeline's penalty.
		d.Faults().CountRetry()
		done = d.AccessClean(done, addr, size, false) + e.retryPenalty
		e.latRetry[d].Observe(done - issue)
		if e.tracer != nil {
			e.tracer.Instant("fault", "corrected", issue)
		}
	case fault.Uncorrectable:
		// Beyond the ECC budget: quarantine the lines (remap to spares) so
		// they stop faulting, then refetch from the spare. Without this the
		// simulation would silently serve corrupted data.
		d.Faults().Quarantine(addr, size)
		done = d.AccessClean(done+e.remapPenalty, addr, size, false)
		e.latRetry[d].Observe(done - issue)
		if e.tracer != nil {
			e.tracer.Instant("fault", "remap", issue)
		}
	}
	return done
}

// InstrumentLatency registers the kit's read-latency histograms under the
// controller's scope: "lat.fastHit" for reads served by the fast tier and
// "lat.slowPath" for reads that went to the far tiers. Engines with more
// than two tiers additionally register a per-tier "lat.tier<i>" breakdown
// for tiers 2..n-1 (two-tier engines register exactly the historical pair).
// The classic histograms are returned for controllers that observe them
// directly.
func (e *Engine) InstrumentLatency(scope *sim.Stats) (latFast, latSlow *sim.Histogram) {
	e.latFast = scope.Histogram("lat.fastHit")
	e.latSlow = scope.Histogram("lat.slowPath")
	for i, t := range e.tiers {
		if i >= 2 {
			t.lat = scope.Histogram(fmt.Sprintf("lat.tier%d", i))
		}
	}
	return e.latFast, e.latSlow
}

// CountWritebacks points the engine's Writeback method at the controller's
// writeback counter (each controller registers it among its own counters so
// counter order is design-controlled).
func (e *Engine) CountWritebacks(c *sim.Counter) { e.writebacks = c }

// SetTracer attaches a request-lifecycle tracer to the engine and every
// tier device. Nil detaches.
func (e *Engine) SetTracer(t *obs.Tracer) {
	e.tracer = t
	for _, tier := range e.tiers {
		tier.dev.SetTracer(t)
	}
}

// Tracer returns the attached tracer (nil when tracing is off).
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// Decision records the controller's access-flow case for the current
// sampled request as an instant event (no-op when tracing is off).
func (e *Engine) Decision(now uint64, cat string) {
	if e.tracer != nil {
		e.tracer.Instant("decision", cat, now)
	}
}

// ObserveFast records a fast-tier read: latency histogram plus the decision
// instant (cat names the controller's case, e.g. "hit", "subHit").
func (e *Engine) ObserveFast(now, done uint64, cat string) {
	e.latFast.Observe(done - now)
	e.Decision(now, cat)
}

// ObserveSlow records a far-path read.
func (e *Engine) ObserveSlow(now, done uint64, cat string) {
	e.latSlow.Observe(done - now)
	e.Decision(now, cat)
}

// FastRead is a demand read from fast memory issued at cycle issue.
func (e *Engine) FastRead(issue, addr, size uint64) uint64 {
	return e.demandRead(e.tiers[0].dev, issue, addr, size)
}

// SlowRead is a demand read from the far path issued at cycle issue: the
// canonical address routes to its owning tier.
func (e *Engine) SlowRead(issue, addr, size uint64) uint64 {
	t, local := e.farFor(addr)
	done := e.demandRead(t.dev, issue, local, size)
	if t.lat != nil {
		t.lat.Observe(done - issue)
	}
	return done
}

// FillFast writes size bytes into fast memory in the background (fills,
// commits, posted write hits).
func (e *Engine) FillFast(now, addr, size uint64) uint64 {
	return e.tiers[0].dev.AccessBackground(now, addr, size, true)
}

// ReadFastBG reads fast memory off the critical path (stage reads during
// commits, probe traffic).
func (e *Engine) ReadFastBG(now, addr, size uint64) uint64 {
	return e.tiers[0].dev.AccessBackground(now, addr, size, false)
}

// FetchSlow reads size bytes from the far path in the background (block and
// range fills).
func (e *Engine) FetchSlow(now, addr, size uint64) uint64 {
	t, local := e.farFor(addr)
	return t.dev.AccessBackground(now, local, size, false)
}

// WriteSlowBG writes the far path in the background without counting a
// writeback (posted demand writes, partial-line updates).
func (e *Engine) WriteSlowBG(now, addr, size uint64) uint64 {
	t, local := e.farFor(addr)
	return t.dev.AccessBackground(now, local, size, true)
}

// Writeback writes a dirty victim's bytes to the far path in the background
// and counts one writeback (the per-design "writebacks" counter).
func (e *Engine) Writeback(now, addr, size uint64) uint64 {
	e.writebacks.Inc()
	t, local := e.farFor(addr)
	return t.dev.AccessBackground(now, local, size, true)
}
