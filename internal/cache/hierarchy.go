package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"baryon/internal/hybrid"
	"baryon/internal/obs"
	"baryon/internal/sim"
)

// HierarchyConfig sizes the cache levels. Sets/ways follow Table I; the LLC
// is scaled with the memory system (see internal/config).
type HierarchyConfig struct {
	Cores int
	L1    Config // per core
	L2    Config // per core
	LLC   Config // shared, inclusive
	// InstallPrefetched controls whether decompression by-products are
	// installed in the LLC (memory-to-LLC prefetching, Section III-E).
	InstallPrefetched bool
}

// DefaultHierarchy returns the Table I hierarchy scaled by llcKB (Table I
// uses 16 MB for a 4 GB fast memory; scaled runs shrink it proportionally).
func DefaultHierarchy(cores, llcKB int) HierarchyConfig {
	llcLines := llcKB * 1024 / hybrid.CachelineSize
	return HierarchyConfig{
		Cores: cores,
		// L1D: 8-way 64 kB, 4-cycle.
		L1: Config{Name: "L1", Sets: 128, Ways: 8, Latency: 4},
		// L2: 8-way 1 MB, 9-cycle (scaled to 64 kB per core to keep the
		// L2:LLC ratio at scaled memory sizes).
		L2: Config{Name: "L2", Sets: 128, Ways: 8, Latency: 9},
		// LLC: 16-way shared, 38-cycle.
		LLC:               Config{Name: "LLC", Sets: llcLines / 16, Ways: 16, Latency: 38},
		InstallPrefetched: true,
	}
}

// MaxCores is the largest core count a Hierarchy supports: the LLC sharer
// mask has one bit per core in a uint64.
const MaxCores = 64

// CheckCores reports whether n cores fit the LLC sharer mask.
func CheckCores(n int) error {
	if n < 1 || n > MaxCores {
		return fmt.Errorf("cores = %d, want 1..%d (the LLC sharer mask has one bit per core)", n, MaxCores)
	}
	return nil
}

// Hierarchy drives per-core L1/L2 and a shared LLC in front of one memory
// controller. LineData supplies the current functional content of a line for
// dirty writebacks (owned by the run harness).
type Hierarchy struct {
	cfg  HierarchyConfig
	l1   []*Cache
	l2   []*Cache
	llc  *Cache
	ctrl hybrid.Controller

	// sharers is the LLC snoop filter, indexed by LLC slot: bit c is set
	// when the line was filled into core c's L2 since the slot was last
	// filled. It is a superset of the L2 (and, by L1 ⊆ L2, the L1) holders,
	// so back-invalidation probes only the cores it names.
	sharers []uint64

	// LineData returns the 64 B functional content of a line for writebacks.
	LineData func(addr uint64) []byte

	llcMisses, llcWritebacks, prefetchInstalls *sim.Counter
	demandLines, servedFast, servedSlow        *sim.Counter

	// Per-access-class completion latency histograms and the whole-plane
	// demand latency, observed on every Access.
	latL1, latL2, latLLC        *sim.Histogram
	latMemFast, latMemSlow, lat *sim.Histogram

	tracer *obs.Tracer
}

// NewHierarchy builds the cache stack in front of ctrl. Every level —
// including each core's private L1/L2 — registers its counters on the run
// registry behind stats: the per-core levels live under "l1.coreK." and
// "l2.coreK." scopes, so their hit/miss counts survive the run and
// participate in snapshots instead of vanishing into private collections.
// It panics if cfg.Cores is outside 1..MaxCores.
func NewHierarchy(cfg HierarchyConfig, ctrl hybrid.Controller, stats *sim.Stats) *Hierarchy {
	if err := CheckCores(cfg.Cores); err != nil {
		panic("cache: " + err.Error())
	}
	h := &Hierarchy{cfg: cfg, ctrl: ctrl, sharers: make([]uint64, cfg.LLC.Sets*cfg.LLC.Ways)}
	h.l1 = make([]*Cache, cfg.Cores)
	h.l2 = make([]*Cache, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		l1cfg, l2cfg := cfg.L1, cfg.L2
		l1cfg.Name, l2cfg.Name = "", ""
		h.l1[i] = New(l1cfg, stats.Scope(fmt.Sprintf("l1.core%d", i)))
		h.l2[i] = New(l2cfg, stats.Scope(fmt.Sprintf("l2.core%d", i)))
	}
	h.llc = New(cfg.LLC, stats)
	s := stats.Scope("hierarchy")
	h.llcMisses = s.Counter("llcMisses")
	h.llcWritebacks = s.Counter("llcWritebacks")
	h.prefetchInstalls = s.Counter("prefetchInstalls")
	h.demandLines = s.Counter("demandLines")
	h.servedFast = s.Counter("servedFast")
	h.servedSlow = s.Counter("servedSlow")
	h.latL1 = s.Histogram("lat.l1Hit")
	h.latL2 = s.Histogram("lat.l2Hit")
	h.latLLC = s.Histogram("lat.llcHit")
	h.latMemFast = s.Histogram("lat.memFast")
	h.latMemSlow = s.Histogram("lat.memSlow")
	h.lat = s.Histogram("lat.demand")
	return h
}

// SetTracer attaches a request-lifecycle tracer to the hierarchy's own
// levels. Nil detaches.
func (h *Hierarchy) SetTracer(t *obs.Tracer) { h.tracer = t }

// Counters exposes the hierarchy's typed counter handles so the run loop
// reads its own metrics (and window deltas) without string-keyed lookups.
type Counters struct {
	LLCMisses, LLCWritebacks      *sim.Counter
	PrefetchInstalls, DemandLines *sim.Counter
	ServedFast, ServedSlow        *sim.Counter
	// DemandLat is the whole-plane demand completion-latency histogram
	// ("hierarchy.lat.demand"), exposed so the run loop can take window
	// deltas of it next to the counters.
	DemandLat *sim.Histogram
}

// Counters returns the hierarchy's typed counter handles.
func (h *Hierarchy) Counters() Counters {
	return Counters{
		LLCMisses: h.llcMisses, LLCWritebacks: h.llcWritebacks,
		PrefetchInstalls: h.prefetchInstalls, DemandLines: h.demandLines,
		ServedFast: h.servedFast, ServedSlow: h.servedSlow,
		DemandLat: h.lat,
	}
}

// Access performs one 64 B load or store for core at cycle now and returns
// the completion cycle. Stores are write-allocate; the caller is responsible
// for updating the functional data plane.
func (h *Hierarchy) Access(core int, now uint64, addr uint64, write bool) uint64 {
	addr = hybrid.LineAddr(addr)
	h.demandLines.Inc()
	l1, l2 := h.l1[core], h.l2[core]

	if l1.Access(addr, write) {
		done := now + h.cfg.L1.Latency
		h.latL1.Observe(done - now)
		h.lat.Observe(done - now)
		if h.tracer != nil {
			h.tracer.Span("L1", "hit", now, done)
		}
		return done
	}
	lat := h.cfg.L1.Latency
	if h.tracer != nil {
		h.tracer.Span("L1", "miss", now, now+lat)
	}
	if l2.Access(addr, false) {
		h.fillL1(core, addr, write, now)
		done := now + lat + h.cfg.L2.Latency
		h.latL2.Observe(done - now)
		h.lat.Observe(done - now)
		if h.tracer != nil {
			h.tracer.Span("L2", "hit", now+lat, done)
		}
		return done
	}
	if h.tracer != nil {
		h.tracer.Span("L2", "miss", now+lat, now+lat+h.cfg.L2.Latency)
	}
	lat += h.cfg.L2.Latency
	if slot := h.llc.access(addr, false); slot >= 0 {
		h.fillL2(core, addr, slot, now)
		h.fillL1(core, addr, write, now)
		done := now + lat + h.cfg.LLC.Latency
		h.latLLC.Observe(done - now)
		h.lat.Observe(done - now)
		if h.tracer != nil {
			h.tracer.Span("LLC", "hit", now+lat, done)
		}
		return done
	}
	if h.tracer != nil {
		h.tracer.Span("LLC", "miss", now+lat, now+lat+h.cfg.LLC.Latency)
	}
	lat += h.cfg.LLC.Latency
	h.llcMisses.Inc()

	res := h.ctrl.Access(now+lat, addr, false, nil)
	if res.ServedByFast {
		h.servedFast.Inc()
		h.latMemFast.Observe(res.Done - now)
	} else {
		h.servedSlow.Inc()
		h.latMemSlow.Observe(res.Done - now)
	}
	h.lat.Observe(res.Done - now)
	if h.tracer != nil {
		cat := "slow"
		if res.ServedByFast {
			cat = "fast"
		}
		h.tracer.Span("ctrl", cat, now+lat, res.Done)
	}
	// addr is its set's MRU line, so the prefetch installs below leave it in
	// slot unless they fill every way of that set.
	slot := h.installLLC(addr, false, now)
	if h.cfg.InstallPrefetched {
		for _, p := range res.Prefetched {
			if p != addr && !h.llc.Probe(p) {
				h.installLLC(p, false, now)
				h.prefetchInstalls.Inc()
			}
		}
	}
	h.fillL2(core, addr, slot, now)
	h.fillL1(core, addr, write, now)
	return res.Done
}

// fillL1 installs addr, which just missed it, into a core's L1; a displaced
// dirty victim propagates its dirtiness to the L2 copy (present by
// inclusion).
func (h *Hierarchy) fillL1(core int, addr uint64, dirty bool, now uint64) {
	v, _ := h.l1[core].installAbsent(addr, dirty)
	if v.Valid && v.Dirty {
		if !h.l2[core].MarkDirty(v.Addr) {
			// Inclusion was broken by a concurrent back-invalidate path;
			// write the line back directly.
			h.writeback(v.Addr, now)
		}
	}
}

// fillL2 installs addr, which just missed it, into a core's L2, recording
// the core as a sharer of the LLC line at llcSlot, back-invalidating the L1
// copy of any displaced victim and propagating dirtiness to the LLC. The
// victim's sharer bit is left set: a stale bit costs one wasted probe at LLC
// eviction, clearing it an LLC lookup on every L2 eviction.
func (h *Hierarchy) fillL2(core int, addr uint64, llcSlot int, now uint64) {
	h.sharers[llcSlot] |= 1 << core
	v, _ := h.l2[core].installAbsent(addr, false)
	if !v.Valid {
		return
	}
	_, l1Dirty := h.l1[core].Invalidate(v.Addr)
	if v.Dirty || l1Dirty {
		if !h.llc.MarkDirty(v.Addr) {
			h.writeback(v.Addr, now)
		}
	}
}

// installLLC installs addr, which must be absent, into the shared LLC and
// returns its slot. The victim's upper-level copies are back-invalidated in
// the cores its sharer mask names, and it is written back if dirty anywhere.
func (h *Hierarchy) installLLC(addr uint64, dirty bool, now uint64) int {
	v, slot := h.llc.installAbsent(addr, dirty)
	sharers := h.sharers[slot]
	h.sharers[slot] = 0
	if !v.Valid {
		return slot
	}
	anyDirty := v.Dirty
	for ; sharers != 0; sharers &= sharers - 1 {
		core := bits.TrailingZeros64(sharers)
		if _, d := h.l1[core].Invalidate(v.Addr); d {
			anyDirty = true
		}
		if _, d := h.l2[core].Invalidate(v.Addr); d {
			anyDirty = true
		}
	}
	if anyDirty {
		h.writeback(v.Addr, now)
	}
	return slot
}

func (h *Hierarchy) writeback(addr uint64, now uint64) {
	h.llcWritebacks.Inc()
	var data []byte
	if h.LineData != nil {
		data = h.LineData(addr)
	}
	h.ctrl.Access(now, addr, true, data)
}

// Flush writes every dirty line in the hierarchy back to the memory
// controller in ascending address order and invalidates all levels, leaving
// the controller's data plane equal to the functional image. No run calls
// it; integrity tests do, before they read memory back.
func (h *Hierarchy) Flush(now uint64) {
	dirty := h.llc.DirtyLines()
	for core := 0; core < h.cfg.Cores; core++ {
		dirty = append(dirty, h.l1[core].DirtyLines()...)
		dirty = append(dirty, h.l2[core].DirtyLines()...)
	}
	slices.Sort(dirty)
	for _, a := range slices.Compact(dirty) {
		h.writeback(a, now)
	}
	for core := 0; core < h.cfg.Cores; core++ {
		h.l1[core].reset()
		h.l2[core].reset()
	}
	h.llc.reset()
	clear(h.sharers)
}

// CheckInclusion verifies the hierarchy's structural invariants: every level
// passes its own set check, for every core L1 ⊆ L2 ⊆ LLC, and every line in
// core c's L2 has bit c set in its LLC sharer mask. It returns the first
// violation found.
func (h *Hierarchy) CheckInclusion() error {
	if err := h.llc.check(); err != nil {
		return fmt.Errorf("cache: LLC: %w", err)
	}
	for core := 0; core < h.cfg.Cores; core++ {
		if err := h.l1[core].check(); err != nil {
			return fmt.Errorf("cache: core %d: L1: %w", core, err)
		}
		if err := h.l2[core].check(); err != nil {
			return fmt.Errorf("cache: core %d: L2: %w", core, err)
		}
		for _, a := range h.l1[core].Lines() {
			if !h.l2[core].Probe(a) {
				return fmt.Errorf("cache: core %d: line %#x in L1 but not in L2", core, a)
			}
		}
		for _, a := range h.l2[core].Lines() {
			_, slot := h.llc.find(a)
			if slot < 0 {
				return fmt.Errorf("cache: core %d: line %#x in L2 but not in LLC", core, a)
			}
			if h.sharers[slot]&(1<<core) == 0 {
				return fmt.Errorf("cache: core %d: line %#x in L2 but its LLC sharer bit is clear", core, a)
			}
		}
	}
	return nil
}
