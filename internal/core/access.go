package core

import (
	"baryon/internal/config"
	"baryon/internal/hybrid"
	"baryon/internal/metadata"
	"baryon/internal/sim"
)

// Access implements the Baryon access flow of Fig. 6. addr is line-aligned.
// Writes are LLC writebacks whose content is already in the store (data is
// unused); they are posted — they return immediately while their traffic is
// accounted in the background.
func (c *Controller) Access(now uint64, addr uint64, write bool, data []byte) hybrid.Result {
	c.seq++
	c.ctr.accesses.Inc()
	if write {
		c.ctr.writes.Inc()
	} else {
		c.ctr.reads.Inc()
	}

	b := c.blockOf(addr) % c.geom.osBlocks
	s := c.subOf(addr)
	line := int(addr % c.geom.subBytes / hybrid.CachelineSize)
	super := c.superOf(b)
	blkOff := c.blkOff(b)

	// Metadata phase: the stage tag array and the remap cache are searched
	// in parallel (Section III-D); stage hits have priority.
	stageT := now + config.StageTagLatency

	ssi := c.stageSetIdx(super)
	c.ageStageSet(ssi)
	sw, slot := c.stageFind(ssi, super, blkOff, s)
	if sw >= 0 {
		c.eng.Decision(now, "stageHit")
		return c.caseStageHit(now, stageT, ssi, sw, slot, b, s, line, write)
	}

	// Remap path (needed because the stage tag array missed the sub-block).
	rmT := c.remapLookup(now, super)
	e := &c.remap[b]

	switch {
	case e.Z:
		c.eng.Decision(now, "zeroBlock")
		return c.caseZeroBlock(now, rmT, b, s, write)
	case e.Remap&(1<<s) != 0:
		c.eng.Decision(now, "fastHit")
		return c.caseFastHit(now, rmT, b, s, line, write)
	case e.Valid():
		c.eng.Decision(now, "fastSubMiss")
		return c.caseFastSubMiss(now, rmT, b, s, line, write)
	}

	// The block is not committed; is it staged (some other sub-block)?
	if bw := c.stageFindBlock(ssi, super, blkOff); bw >= 0 {
		c.eng.Decision(now, "stageSubMiss")
		return c.caseStageSubMiss(now, stageT, ssi, bw, b, s, line, write)
	}
	c.eng.Decision(now, "blockMiss")
	return c.caseBlockMiss(now, max(stageT, rmT), ssi, b, s, line, write)
}

// remapLookup models the remap cache probe and, on a miss, the off-chip
// table read in fast memory. It returns the cycle at which the remap entry
// is known.
func (c *Controller) remapLookup(now uint64, super hybrid.SuperBlockID) uint64 {
	t := now + config.RemapCacheLatency
	if c.remapCache.Access(remapKey(super), false) {
		return t
	}
	t = c.eng.FastRead(t, c.tableBase+uint64(super)*16, 64)
	if v, _ := c.remapCache.InstallAbsent(remapKey(super), false); v.Valid && v.Dirty {
		// Dirty victim line written back to the off-chip table.
		c.remapWritebacks.Inc()
		c.eng.FillFast(now, c.tableBase+uint64(super)*16, 64)
	}
	return t
}

// remapKey is super's line address in the remap cache: one 64 B line per
// super-block, so super-block n maps to set n mod sets.
func remapKey(super hybrid.SuperBlockID) uint64 { return uint64(super) * hybrid.CachelineSize }

// metaUpdate records a remap-entry update: absorbed on chip when the line is
// cached, otherwise written through to the table in fast memory.
func (c *Controller) metaUpdate(now uint64, super hybrid.SuperBlockID) {
	if !c.remapCache.MarkDirty(remapKey(super)) {
		c.eng.FillFast(now, c.tableBase+uint64(super)*16, 64)
	}
}

// --- Case 1: block in stage area, sub-block hit ------------------------

func (c *Controller) caseStageHit(now, stageT uint64, ssi, sw, slot int, b uint64, s, line int, write bool) hybrid.Result {
	sm, fr := c.stageDir.Way(ssi, sw)
	sm.LastUse = c.seq
	c.stageState[ssi].mruWay = sw
	c.ctr.stageHits.Inc()
	c.recordStageEvent(fr, false)

	rg := fr.tag.Slots[slot]

	if rg.Zero {
		if !write {
			c.ctr.servedZero.Inc()
			c.ctr.servedFast.Inc()
			c.ctr.latStageHit.Observe(stageT - now)
			return hybrid.Result{Done: stageT, ServedByFast: true}
		}
		// Writing non-zero data to an all-zero block: drop the zero
		// descriptor and restage the written sub-block with real content.
		fr.tag.Slots[slot] = metadata.Range{}
		c.stageInsertRange(now, ssi, sw, b, s, true)
		return hybrid.Result{Done: now}
	}

	start := int(rg.SubOff)
	cf := int(rg.CF)
	if !write {
		return c.fastServe(now, stageT, c.stageFrameAddr(ssi, sw, slot), c.ctr.latStageHit, b, s, line, start, cf)
	}

	// Write hit in the stage area: recompress the updated content; a CF
	// change removes and reinserts the range as if newly fetched (Section
	// III-D).
	if c.rangeFits(c.rangeView(b, start, cf), cf) {
		fr.tag.Slots[slot].Dirty = true
		c.eng.FillFast(now, c.stageFrameAddr(ssi, sw, slot), 64)
		return hybrid.Result{Done: now}
	}
	c.ctr.stageWriteOverflow.Inc()
	c.restageOverflowedRange(now, ssi, sw, slot, b)
	return hybrid.Result{Done: now}
}

// rangeFits reports whether content, a range of cf sub-blocks,
// compresses into one sub-block slot. compress.RangeFits derives the slot
// size from len(content)/cf, so Baryon-64B's 64 B sub-blocks need no
// adaptation. With compression off only CF 1 fits.
func (c *Controller) rangeFits(content []byte, cf int) bool {
	if cf > 1 && c.cfg.CompressionOff {
		return false
	}
	return c.comp.RangeFits(content, cf)
}

// restageOverflowedRange removes the overflowed range and reinserts its
// sub-blocks as newly fetched ranges; the store already holds the write.
func (c *Controller) restageOverflowedRange(now uint64, ssi, sw, slot int, b uint64) {
	fr := c.stageDir.Payload(ssi, sw)
	rg := fr.tag.Slots[slot]
	c.clearHints(b, int(rg.SubOff), int(rg.CF))
	fr.tag.Slots[slot] = metadata.Range{}
	for i := 0; i < int(rg.CF); i++ {
		sub := int(rg.SubOff) + i
		if _, sl := c.stageFind(ssi, fr.tag.Super, int(rg.BlkOff), sub); sl >= 0 {
			continue // already covered by a reinserted neighbour
		}
		c.stageInsertRange(now, ssi, sw, b, sub, true)
	}
}

// --- Z-block service ----------------------------------------------------

func (c *Controller) caseZeroBlock(now, rmT uint64, b uint64, s int, write bool) hybrid.Result {
	if !write {
		c.ctr.servedZero.Inc()
		c.ctr.servedFast.Inc()
		c.ctr.fastHits.Inc()
		c.ctr.latFastHit.Observe(rmT - now)
		return hybrid.Result{Done: rmT, ServedByFast: true}
	}
	// A non-zero write invalidates Z; the block falls back to the slow
	// memory until it is staged again.
	c.uncommit(b)
	c.metaUpdate(now, c.superOf(b))
	c.clearHints(b, s, 1)
	c.eng.WriteSlowBG(now, c.slowAddr(b, s), 64)
	return hybrid.Result{Done: now}
}

// --- Case 2: block committed, sub-block hit -----------------------------

func (c *Controller) caseFastHit(now, rmT uint64, b uint64, s, line int, write bool) hybrid.Result {
	super := c.superOf(b)
	si := c.setIdx(super)
	entries := c.superEntries(super)
	off := c.blkOff(b)
	way := int(entries[off].Pointer)
	c.fastDir.SetMeta(si)[way].LastUse = c.seq
	start, cf := entries[off].RangeOf(s)
	addr := c.frameAddr(si, way, metadata.SlotPosition(entries, off, s))
	c.ctr.fastHits.Inc()
	if !write {
		return c.fastServe(now, rmT, addr, c.ctr.latFastHit, b, s, line, start, cf)
	}

	// Committed layouts are frozen (Rule 4): a write that no longer fits
	// evicts the whole block to slow memory.
	// Known defect (ROADMAP, "lost write"): a clean range's overflow never charges this write.
	if c.rangeFits(c.rangeView(b, start, cf), cf) {
		c.dirty[b] |= uint8(1<<cf-1) << start
		c.eng.FillFast(now, addr, 64)
		return hybrid.Result{Done: now}
	}
	c.ctr.fastOverflow.Inc()
	c.evictCommittedBlock(now, si, way, b)
	return hybrid.Result{Done: now}
}

// --- Case 4: block committed, sub-block miss -> bypass to slow ----------

func (c *Controller) caseFastSubMiss(now, rmT uint64, b uint64, s, line int, write bool) hybrid.Result {
	c.ctr.fastSubMiss.Inc()
	res := c.slowDemand(now, rmT, b, s, line, write)
	if write {
		c.eng.WriteSlowBG(now, c.slowAddr(b, s)+uint64(line)*64, 64)
	}
	if !c.cfg.UseStageArea {
		// Without a stage area there is no frozen-layout rule to respect:
		// the new sub-block is inserted directly, re-sorting the frame
		// (the costly behaviour Fig. 13(c)'s "no stage" bar shows).
		c.directInsert(now, b, s, write)
	}
	return res
}

// --- Case 3: block staged, sub-block miss -------------------------------

func (c *Controller) caseStageSubMiss(now, stageT uint64, ssi, sw int, b uint64, s, line int, write bool) hybrid.Result {
	fr := c.stageDir.Payload(ssi, sw)
	fr.tag.MissCnt = satAdd16(fr.tag.MissCnt, 1)
	st := &c.stageState[ssi]
	if st.mruWay == sw {
		st.mruMissCnt++
	}
	c.ctr.stageSubMiss.Inc()
	c.recordStageEvent(fr, true)

	res := c.slowDemand(now, stageT, b, s, line, write)
	// Background: stage the maximal compressible range around s (Rule 3
	// pins it to the same physical block as the block's other ranges).
	c.stageInsertRange(now, ssi, sw, b, s, write)
	return res
}

// --- Case 5: block miss everywhere --------------------------------------

func (c *Controller) caseBlockMiss(now, metaT uint64, ssi int, b uint64, s, line int, write bool) hybrid.Result {
	c.stageState[ssi].mruMissCnt++
	c.ctr.blockMiss.Inc()
	res := c.slowDemand(now, metaT, b, s, line, write)
	if !c.cfg.UseStageArea {
		c.directInsert(now, b, s, write)
		return res
	}

	super := c.superOf(b)
	// Find stage ways already holding this super-block; pick one at random
	// when several exist (Section III-D, case 5). stageWays is at most 8,
	// so the candidate list lives on the stack.
	var candidates [8]int
	nc := 0
	for w := 0; w < c.geom.stageWays; w++ {
		if fr := c.stageDir.Payload(ssi, w); fr.tag.Valid && fr.tag.Super == super {
			candidates[nc] = w
			nc++
		}
	}
	var sw int
	switch nc {
	case 0:
		// Block-level replacement: the set's victim way is retired and
		// re-tagged for this super-block.
		sw = c.stageDir.Victim(ssi, c.stageRep)
		if c.stageDir.Payload(ssi, sw).tag.Valid {
			c.ctr.blockReplacements.Inc()
		}
		c.claimStageFrame(now, ssi, sw, super)
	case 1:
		sw = candidates[0]
	default:
		sw = candidates[c.rng.Intn(nc)]
	}
	c.stageInsertRange(now, ssi, sw, b, s, write)
	c.prefetchHintedRanges(now, ssi, sw, b, s)
	return res
}

// slowDemand serves a demand access whose sub-block neither area holds
// (cases 3, 4 and 5): a write, already in the store, is staged or bypassed
// by the caller; a read is served by slow memory once the metadata is known
// at t.
func (c *Controller) slowDemand(now, t uint64, b uint64, s, line int, write bool) hybrid.Result {
	if write {
		c.clearHints(b, s, 1)
		return hybrid.Result{Done: now}
	}
	done := c.eng.SlowRead(t, c.slowAddr(b, s)+uint64(line)*64, 64)
	c.ctr.servedSlow.Inc()
	c.ctr.latSlowPath.Observe(done - now)
	return hybrid.Result{Done: done}
}

// fastServe serves a read hit on line `line` of sub s, held in the range of
// cf sub-blocks from start stored at devAddr in fast memory (a stage or a
// committed slot) once the metadata is known at t; lat takes the latency.
func (c *Controller) fastServe(now, t, devAddr uint64, lat *sim.Histogram, b uint64, s, line, start, cf int) hybrid.Result {
	done := c.eng.FastRead(t, devAddr, c.readXferBytes(cf))
	if cf > 1 {
		done += c.cfg.DecompressLatency
		c.ctr.decompressions.Inc()
	}
	c.ctr.servedFast.Inc()
	lat.Observe(done - now)
	lineInRange := (s-start)*c.geom.linesPerSub + line
	return hybrid.Result{Done: done, ServedByFast: true, Prefetched: c.chunkPrefetch(b, start, cf, lineInRange)}
}

// prefetchHintedRanges re-stages the ranges a previously evicted block left
// behind in compressed form: the CF2/CF4 bits kept by the fast-to-slow
// compressed writeback act as slow-to-stage prefetching hints when the block
// is fetched again (Section III-F).
func (c *Controller) prefetchHintedRanges(now uint64, ssi, sw int, b uint64, demanded int) {
	if !c.cfg.CompressedWriteback {
		return
	}

	super := c.superOf(b)
	blkOff := c.blkOff(b)
	for _, cf := range []int{4, 2} {
		for start := 0; start < config.SubBlocksPerBlock; start += cf {
			if c.cfHint[b]&hintBit(start, cf) != 0 && demanded/cf != start/cf {
				if w, _ := c.stageFind(ssi, super, blkOff, start); w < 0 {
					c.stageInsertRange(now, ssi, sw, b, start, false)
				}
			}
		}
	}
}

func satAdd16(a uint16, d uint16) uint16 {
	if a > 0xFFFF-d {
		return 0xFFFF
	}
	return a + d
}

// readXferBytes is the fast-memory transfer size of a compressed read hit:
// 64 B with cacheline-aligned compression, but the whole compressed
// sub-block without it, since the chunk boundaries inside the compressed
// stream are unknown (Fig. 7 left).
func (c *Controller) readXferBytes(cf int) uint64 {
	if cf <= 1 || c.cfg.CachelineAligned {
		return 64
	}
	return c.geom.subBytes
}

// chunkPrefetch returns the cachelines decoded alongside the demanded one.
// With cacheline-aligned compression one 64 B transfer decodes into cf
// lines; without it the whole compressed range must be transferred and every
// line of the range is decoded (bandwidth waste and LLC pollution, Fig. 7).
func (c *Controller) chunkPrefetch(b uint64, start, cf, lineInRange int) []uint64 {
	if cf <= 1 {
		return nil
	}
	rangeBase := b*c.geom.blockBytes + uint64(start)*c.geom.subBytes
	var first, count int
	if c.cfg.CachelineAligned {
		first = lineInRange / cf * cf
		count = cf
	} else {
		first = 0
		count = cf * c.geom.linesPerSub
	}
	out := c.prefetchScratch[:0]
	for k := first; k < first+count; k++ {
		if k == lineInRange {
			continue
		}
		out = append(out, rangeBase+uint64(k)*64)
	}
	c.prefetchScratch = out
	return out
}

// clearHints invalidates the compressed-writeback hints covering sub-blocks
// s..s+n-1 of block b.
func (c *Controller) clearHints(b uint64, s, n int) {
	for i := s; i < s+n; i++ {
		c.cfHint[b] &^= hintBit(i, 2) | hintBit(i, 4)
	}
}

// hintBit returns the cfHint bit marking the range of cf sub-blocks that
// holds sub-block start: bit start/2 for a pair, bit 4+start/4 for a quad,
// and no bit for any other cf.
func hintBit(start, cf int) uint8 {
	switch cf {
	case 2:
		return 1 << (start / 2)
	case 4:
		return 1 << (4 + start/4)
	}
	return 0
}
