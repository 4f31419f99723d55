package baselines

import (
	"baryon/internal/compress"
	"baryon/internal/hybrid"
	"baryon/internal/sim"
)

// DICE models the compressed DRAM cache of Young et al. (ISCA 2017): 64 B
// blocks in a direct-mapped cache with Dynamic-Indexing Compressed
// Encoding — the cache index depends on the compressibility of the
// spatially-adjacent group, so that compressed neighbours land in the same
// slot while incompressible lines spread over distinct slots. Per the
// paper's setup it gets the same 5-cycle decompression latency as Baryon, a
// perfect way predictor, and (here) a perfect CF predictor, its most
// optimistic configuration.
//
// The model works on aligned 4-line (256 B) groups: the group's quantised
// compression factor cf (1, 2 or 4, from the real FPC/BDI compressors)
// groups cf adjacent lines into one slot at index (line-address / cf).
// A hit on a compressed slot decodes up to four lines per 64 B transfer,
// which become free memory-to-LLC prefetches — DICE's bandwidth benefit.
//
// On the kit, DICE is the direct-mapped special case: a Dir with one way
// per set, keyed by the compression-run id (the CF-dependent index).
type DICE struct {
	eng   *hybrid.Engine
	store *hybrid.Store
	comp  *compress.Compressor

	dir               *hybrid.Dir[diceSlot]
	cfCache           map[uint64]uint8 // group -> current CF (the CF predictor)
	decompressLatency uint64

	accesses, hits, misses, writebacks *sim.Counter
	servedFast, decompressions         *sim.Counter
}

// diceSlot is the directory payload of one direct-mapped slot; the run id
// lives in the way's Key.
type diceSlot struct {
	cf      uint8
	present uint8 // bitmask of the run's lines actually present (cf wide)
	dirty   uint8
}

// NewDICE builds the DICE baseline with fastBytes of cache. tiers is
// the device topology (tier 0 = fast).
func NewDICE(fastBytes uint64, store *hybrid.Store, stats *sim.Stats, decompressLatency uint64, tiers []hybrid.TierSpec) *DICE {
	d := &DICE{
		store:             store,
		comp:              compress.New(true),
		eng:               hybrid.NewEngineTiers(tiers, stats),
		dir:               hybrid.NewDirSets[diceSlot](fastBytes/hybrid.CachelineSize, 1),
		cfCache:           make(map[uint64]uint8),
		decompressLatency: decompressLatency,
	}
	cstats := stats.Scope("dice")
	d.accesses = cstats.Counter("accesses")
	d.hits = cstats.Counter("hits")
	d.misses = cstats.Counter("misses")
	d.writebacks = cstats.Counter("writebacks")
	d.servedFast = cstats.Counter("servedFast")
	d.decompressions = cstats.Counter("decompressions")
	d.eng.InstrumentLatency(cstats)
	return d
}

// Engine returns the shared migration/writeback engine (hybrid.Controller).
func (d *DICE) Engine() *hybrid.Engine { return d.eng }

// groupCF computes (and caches) the quantised CF of the 4-line group.
func (d *DICE) groupCF(group uint64) uint8 {
	if cf, ok := d.cfCache[group]; ok {
		return cf
	}
	content := d.store.Bytes(group*256, 256)
	// The whole group in one 64 B line, else each half in one line.
	var cf uint8
	switch {
	case d.comp.RangeFits(content, 4):
		cf = 4
	case d.comp.RangeFits(content, 2):
		cf = 2
	default:
		cf = 1
	}
	d.cfCache[group] = cf
	return cf
}

// slotFor returns the slot halves and run id for a line at the group's CF.
func (d *DICE) slotFor(lineIdx uint64, cf uint8) (*hybrid.WayMeta, *diceSlot, uint64, uint64) {
	run := lineIdx / uint64(cf)
	si := d.dir.SetIndex(run)
	meta, slot := d.dir.Way(si, 0)
	return meta, slot, run, uint64(si) * 64
}

// Access implements hybrid.Controller.
func (d *DICE) Access(now uint64, addr uint64, write bool, data []byte) hybrid.Result {
	d.accesses.Inc()
	lineIdx := addr / 64
	group := addr / 256
	cf := d.groupCF(group)
	meta, slot, run, slotAddr := d.slotFor(lineIdx, cf)
	within := uint8(lineIdx % uint64(cf))

	if meta.Valid && meta.Key == run && slot.cf == cf && slot.present&(1<<within) != 0 {
		d.hits.Inc()
		if write {
			// The write may change the group's compressibility; with the
			// perfect CF predictor the slot is re-installed under the new
			// CF on the next touch (invalidate the stale cached CF).
			delete(d.cfCache, group)
			newCF := d.groupCF(group)
			if newCF != cf {
				d.writebackSlot(now, meta, slot)
				meta.Valid = false
				d.installRun(now, lineIdx, newCF, true)
			} else {
				slot.dirty |= 1 << within
			}
			d.eng.FillFast(now, slotAddr, 64)
			return hybrid.Result{Done: now}
		}
		done := d.eng.FastRead(now, slotAddr, 64)
		if cf > 1 {
			done += d.decompressLatency
			d.decompressions.Inc()
		}
		d.servedFast.Inc()
		d.eng.ObserveFast(now, done, "hit")
		res := hybrid.Result{Done: done, ServedByFast: true}
		base := run * uint64(cf) * 64
		for l := uint8(0); l < cf; l++ {
			if l != within && slot.present&(1<<l) != 0 {
				res.Prefetched = append(res.Prefetched, base+uint64(l)*64)
			}
		}
		return res
	}

	// Miss: tag-and-data units live in DRAM, so discovering the miss costs
	// one fast probe; then serve from slow memory and install the run.
	d.misses.Inc()
	probe := d.eng.FastRead(now, slotAddr, 64)
	var res hybrid.Result
	if write {
		res = hybrid.Result{Done: now}
	} else {
		done := d.eng.SlowRead(probe, addr, 64)
		d.eng.ObserveSlow(now, done, "miss")
		res = hybrid.Result{Done: done}
	}
	// Known defect (ROADMAP, "stale CF on write misses"): a write miss installs at the CF cached before the write.
	d.installRun(now, lineIdx, cf, write)
	return res
}

// installRun installs the compressed run containing lineIdx, evicting any
// dirty occupant of the slot.
func (d *DICE) installRun(now uint64, lineIdx uint64, cf uint8, write bool) {
	meta, slot, run, slotAddr := d.slotFor(lineIdx, cf)
	within := uint8(lineIdx % uint64(cf))
	if meta.Valid && (meta.Key != run || slot.cf != cf) {
		d.writebackSlot(now, meta, slot)
	}
	var present uint8
	for l := uint8(0); l < cf; l++ {
		present |= 1 << l
	}
	// One extra burst brings the rest of the compressed run.
	if cf > 1 {
		d.eng.FetchSlow(now, run*uint64(cf)*64, 64)
	}
	d.eng.FillFast(now, slotAddr, 64)
	*meta = hybrid.WayMeta{Key: run, Valid: true}
	ns := diceSlot{cf: cf, present: present}
	if write {
		ns.dirty = 1 << within
	}
	*slot = ns
}

func (d *DICE) writebackSlot(now uint64, meta *hybrid.WayMeta, slot *diceSlot) {
	if !meta.Valid || slot.dirty == 0 {
		return
	}
	n := uint64(0)
	for l := uint8(0); l < 4; l++ {
		if slot.dirty&(1<<l) != 0 {
			n++
		}
	}
	d.writebacks.Inc()
	d.eng.WriteSlowBG(now, meta.Key*uint64(slot.cf)*64, n*64)
	slot.dirty = 0
}
