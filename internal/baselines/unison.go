package baselines

import (
	"math/bits"

	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

// Unison models Unison Cache (Jevdjic et al., MICRO 2014): a die-stacked
// DRAM cache with 2 kB blocks, 64 B sub-blocking driven by a footprint
// history table, embedded-in-DRAM tags and a way predictor. No compression.
//
//   - On a block miss, the predicted footprint (from the history table,
//     keyed by the block address) is fetched, not the whole block.
//   - On eviction, the block's observed footprint updates the history.
//   - Tags live in DRAM: a hit costs one fast-memory access that returns tag
//     and data together when the way predictor is right, and an extra access
//     when it is wrong.
type Unison struct {
	eng   *hybrid.Engine
	store *hybrid.Store
	rng   *sim.RNG

	dir   *hybrid.Dir[unisonWay]
	rep   hybrid.Replacer
	assoc int
	seq   uint64

	// Footprint history. Unison indexes its footprint history table by
	// (PC, page offset) so footprints generalise across pages of the same
	// access pattern; traces carry no PCs, so the same generalisation is
	// approximated with two levels: an exact per-block table, and a
	// class table keyed by the block's first-touched sub-block offset,
	// which captures "streaming pages touched from offset k onward".
	history      map[uint64]uint32
	classHistory [32]uint32

	accesses, blockHits, subHits, subMisses, blockMisses *sim.Counter
	wayMispredicts, writebacks, servedFast               *sim.Counter
}

// unisonWay is the directory payload: sub-block presence/dirty/footprint
// bitmaps plus the class-history key.
type unisonWay struct {
	present  uint32 // 64 B sub-blocks present (32 per 2 kB block)
	dirty    uint32
	accessed uint32 // observed footprint for history update
	firstSub uint8  // first-touched sub (class-history key)
}

// wayPredictAccuracy is the optimistic way-predictor hit rate the paper
// grants Unison's enlarged SRAM structures.
const wayPredictAccuracy = 0.95

// unisonSub is the 64 B sub-block size of Unison Cache.
const unisonSub = 64

// NewUnison builds the Unison baseline, replacing victims by rep (nil =
// LRU). tiers is the device topology (tier 0 = fast).
func NewUnison(fastBlocks uint64, assoc int, rep hybrid.Replacer, store *hybrid.Store, stats *sim.Stats, seed uint64, tiers []hybrid.TierSpec) *Unison {
	if rep == nil {
		rep = hybrid.LRU{}
	}
	u := &Unison{
		store: store, assoc: assoc,
		eng:     hybrid.NewEngineTiers(tiers, stats),
		dir:     hybrid.NewDir[unisonWay](fastBlocks, assoc),
		rep:     rep,
		rng:     sim.NewRNG(seed ^ 0x0550A11),
		history: make(map[uint64]uint32),
	}
	cstats := stats.Scope("unison")
	u.accesses = cstats.Counter("accesses")
	u.blockHits = cstats.Counter("blockHits")
	u.subHits = cstats.Counter("subHits")
	u.subMisses = cstats.Counter("subMisses")
	u.blockMisses = cstats.Counter("blockMisses")
	u.wayMispredicts = cstats.Counter("wayMispredicts")
	u.writebacks = cstats.Counter("writebacks")
	u.servedFast = cstats.Counter("servedFast")
	u.eng.CountWritebacks(u.writebacks)
	u.eng.InstrumentLatency(cstats)
	return u
}

// Name identifies the design.
func (u *Unison) Name() string { return "UnisonCache" }

// Engine returns the shared migration/writeback engine (hybrid.Controller).
func (u *Unison) Engine() *hybrid.Engine { return u.eng }

func (u *Unison) frameAddr(set uint64, way int) uint64 {
	return (set*uint64(u.assoc) + uint64(way)) * hybrid.BlockSize
}

// Access implements hybrid.Controller.
func (u *Unison) Access(now uint64, addr uint64, write bool, data []byte) hybrid.Result {
	u.seq++
	u.accesses.Inc()
	block := addr / hybrid.BlockSize
	sub := uint(addr % hybrid.BlockSize / unisonSub)
	si := u.dir.SetIndex(block)
	setIdx := uint64(si)

	if write {
		u.store.WriteLine(addr, data)
	}

	if w := u.dir.Lookup(si, block); w >= 0 {
		meta, way := u.dir.Way(si, w)
		u.blockHits.Inc()
		meta.LastUse = u.seq
		way.accessed |= 1 << sub
		if way.present&(1<<sub) != 0 {
			u.subHits.Inc()
			// Tag+data come back in one access when the way predictor is
			// right; a mispredict costs a second fast-memory probe.
			t := now
			if !u.rng.Bool(wayPredictAccuracy) {
				u.wayMispredicts.Inc()
				t = u.eng.FastRead(t, u.frameAddr(setIdx, w), 64)
			}
			if write {
				way.dirty |= 1 << sub
				u.eng.FillFast(t, u.frameAddr(setIdx, w)+uint64(sub)*unisonSub, 64)
				return hybrid.Result{Done: now}
			}
			done := u.eng.FastRead(t, u.frameAddr(setIdx, w)+uint64(sub)*unisonSub, 64)
			u.servedFast.Inc()
			u.eng.ObserveFast(now, done, "subHit")
			return hybrid.Result{Done: done, ServedByFast: true}
		}
		// Sub-block miss within an allocated block: fetch just the sub.
		// The growing footprint feeds the class history incrementally so
		// prediction works before the first evictions.
		u.subMisses.Inc()
		way.present |= 1 << sub
		u.classHistory[way.firstSub] = way.accessed
		if write {
			way.dirty |= 1 << sub
			u.eng.FillFast(now, u.frameAddr(setIdx, w)+uint64(sub)*unisonSub, 64)
			return hybrid.Result{Done: now}
		}
		done := u.eng.SlowRead(now, addr, 64)
		u.eng.ObserveSlow(now, done, "subMiss")
		u.eng.FillFast(now, u.frameAddr(setIdx, w)+uint64(sub)*unisonSub, 64)
		return hybrid.Result{Done: done}
	}

	// Block miss: tags are embedded in DRAM, so discovering the miss costs
	// one fast-memory probe; then allocate with the predicted footprint.
	u.blockMisses.Inc()
	probe := u.eng.FastRead(now, u.frameAddr(setIdx, 0), 64)
	var res hybrid.Result
	if write {
		res = hybrid.Result{Done: now}
	} else {
		done := u.eng.SlowRead(probe, addr, 64)
		u.eng.ObserveSlow(now, done, "blockMiss")
		res = hybrid.Result{Done: done}
	}

	victim := u.dir.Victim(si, u.rep)
	vm, vw := u.dir.Way(si, victim)
	if vm.Valid {
		// Update both history levels and write dirty sub-blocks back.
		u.history[vm.Key] = vw.accessed
		u.classHistory[vw.firstSub] = vw.accessed
		if vw.dirty != 0 {
			u.eng.Writeback(now, vm.Key*hybrid.BlockSize, uint64(bits.OnesCount32(vw.dirty))*unisonSub)
		}
	}

	footprint, ok := u.history[block]
	if !ok || footprint == 0 {
		footprint = u.classHistory[sub] // generalise across like pages
	}
	footprint |= 1 << sub
	n := uint64(bits.OnesCount32(footprint))
	u.eng.FetchSlow(now, block*hybrid.BlockSize, n*unisonSub)
	u.eng.FillFast(now, u.frameAddr(setIdx, victim), n*unisonSub)
	// Tags and footprint metadata are embedded in DRAM: allocations update
	// them with an extra write (Unison's tag-update bandwidth).
	u.eng.FillFast(now, u.frameAddr(setIdx, victim), 64)
	*vm = hybrid.WayMeta{Key: block, Valid: true, LastUse: u.seq}
	*vw = unisonWay{present: footprint, accessed: 1 << sub, firstSub: uint8(sub)}
	if write {
		vw.dirty = 1 << sub
	}
	return res
}

// PeekLine implements hybrid.Controller.
func (u *Unison) PeekLine(addr uint64) []byte { return u.store.Line(addr) }
