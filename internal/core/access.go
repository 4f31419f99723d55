package core

import "baryon/internal/hybrid"

// Access implements the Baryon access flow of Fig. 6. addr is line-aligned;
// for writes, data carries the new 64 B content (writes are LLC writebacks
// and are posted — they return immediately while their traffic is accounted
// in the background).
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
	stageT := now + c.cfg.StageTagLatency

	ssi := c.stageSetIdx(super)
	c.ageStageSet(ssi)
	sw, slot := c.stageFind(ssi, super, blkOff, s)
	if sw >= 0 {
		c.traceDecision(now, "stageHit")
		return c.caseStageHit(now, stageT, ssi, sw, slot, b, s, line, write, data)
	}

	// Remap path (needed because the stage tag array missed the sub-block).
	rmT := c.remapLookup(now, super)
	ri := &c.remap[b]

	switch {
	case ri.z:
		c.traceDecision(now, "zeroBlock")
		return c.caseZeroBlock(now, rmT, b, s, line, write, data)
	case ri.remap&(1<<s) != 0:
		c.traceDecision(now, "fastHit")
		return c.caseFastHit(now, rmT, ri, b, s, line, write, data)
	case ri.valid():
		c.traceDecision(now, "fastSubMiss")
		return c.caseFastSubMiss(now, rmT, b, s, line, write, data)
	}

	// The block is not committed; is it staged (some other sub-block)?
	if bw := c.stageFindBlock(ssi, super, blkOff); bw >= 0 {
		c.traceDecision(now, "stageSubMiss")
		return c.caseStageSubMiss(now, stageT, ssi, bw, b, s, line, write, data)
	}
	c.traceDecision(now, "blockMiss")
	return c.caseBlockMiss(now, maxU64(stageT, rmT), ssi, b, s, line, write, data)
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// remapLookup models the remap cache probe and, on a miss, the off-chip
// table read in fast memory. It returns the cycle at which the remap entry
// is known.
func (c *Controller) remapLookup(now uint64, super hybrid.SuperBlockID) uint64 {
	t := now + c.cfg.RemapCacheLatency
	if c.rcache.Lookup(uint64(super)) {
		return t
	}
	t = c.eng.FastRead(t, c.tableBase+uint64(super)*16, 64)
	if c.rcache.Insert(uint64(super)) {
		// Dirty victim line written back to the off-chip table.
		c.eng.FillFast(now, c.tableBase+uint64(super)*16, 64)
	}
	return t
}

// metaUpdate records a remap-entry update: absorbed on chip when the line is
// cached, otherwise written through to the table in fast memory.
func (c *Controller) metaUpdate(now uint64, super hybrid.SuperBlockID) {
	if !c.rcache.MarkDirty(uint64(super)) {
		c.eng.FillFast(now, c.tableBase+uint64(super)*16, 64)
	}
}

// --- Case 1: block in stage area, sub-block hit ------------------------

func (c *Controller) caseStageHit(now, stageT uint64, ssi, sw, slot int, b uint64, s, line int, write bool, data []byte) hybrid.Result {
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
			return hybrid.Result{Done: stageT, ServedByFast: true, Data: zeroLine()}
		}
		// Writing non-zero data to an all-zero block: drop the zero
		// descriptor and restage the written sub-block with real content.
		c.store.WriteLine(b*c.geom.blockBytes+uint64(s)*c.geom.subBytes+uint64(line)*64, data)
		c.removeStageSlot(fr, slot)
		c.stageInsertRange(now, ssi, sw, b, s, true)
		return hybrid.Result{Done: now}
	}

	start := int(rg.SubOff)
	cf := int(rg.CF)
	lineInRange := (s-start)*c.geom.linesPerSub + line

	if !write {
		devAddr := c.stageFrameAddr(ssi, sw, slot)
		done := c.eng.FastRead(stageT, devAddr, c.readXferBytes(cf))
		if cf > 1 {
			done += c.cfg.DecompressLatency
			c.ctr.decompressions.Inc()
		}
		c.ctr.servedFast.Inc()
		c.ctr.latStageHit.Observe(done - now)
		lineData := fr.data[slot][lineInRange*64 : lineInRange*64+64]
		res := hybrid.Result{Done: done, ServedByFast: true, Data: lineData}
		res.Prefetched = c.chunkPrefetch(b, start, cf, lineInRange, fr.data[slot])
		return res
	}

	// Write hit in the stage area: update content, recompress; a CF change
	// removes and reinserts the range as if newly fetched (Section III-D).
	copy(fr.data[slot][lineInRange*64:], data)
	if c.rangeFits(fr.data[slot], cf) {
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
// sub-blocks (with their freshest content) as newly fetched ranges.
func (c *Controller) restageOverflowedRange(now uint64, ssi, sw, slot int, b uint64) {
	fr := c.stageDir.Payload(ssi, sw)
	rg := fr.tag.Slots[slot]
	content := fr.data[slot]
	// Push the freshest content into the canonical store first; reinsertion
	// refetches from there.
	for i := 0; i < int(rg.CF); i++ {
		copy(c.slowSub(b, int(rg.SubOff)+i), content[uint64(i)*c.geom.subBytes:])
		c.clearHints(b, int(rg.SubOff)+i)
	}
	c.removeStageSlot(fr, slot)
	for i := 0; i < int(rg.CF); i++ {
		sub := int(rg.SubOff) + i
		if _, sl := c.stageFind(ssi, fr.tag.Super, int(rg.BlkOff), sub); sl >= 0 {
			continue // already covered by a reinserted neighbour
		}
		c.stageInsertRange(now, ssi, sw, b, sub, true)
	}
}

// --- Z-block service ----------------------------------------------------

// zeroLineBuf backs every zero-line result; consumers treat Result.Data as
// read-only, so one shared buffer serves all controllers.
var zeroLineBuf [hybrid.CachelineSize]byte

func zeroLine() []byte { return zeroLineBuf[:] }

// copyStoreLine copies the canonical content of one line into the
// controller's line scratch, valid until the next Access.
func (c *Controller) copyStoreLine(lineAddr uint64) []byte {
	copy(c.lineScratch[:], c.store.Bytes(lineAddr, 64))
	return c.lineScratch[:]
}

func (c *Controller) caseZeroBlock(now, rmT uint64, b uint64, s, line int, write bool, data []byte) hybrid.Result {
	if !write {
		c.ctr.servedZero.Inc()
		c.ctr.servedFast.Inc()
		c.ctr.fastHits.Inc()
		c.ctr.latFastHit.Observe(rmT - now)
		return hybrid.Result{Done: rmT, ServedByFast: true, Data: zeroLine()}
	}
	// A non-zero write invalidates Z; the block falls back to the slow
	// memory until it is staged again.
	ri := &c.remap[b]
	ri.z = false
	ri.way = -1
	c.metaUpdate(now, c.superOf(b))
	c.store.WriteLine(b*c.geom.blockBytes+uint64(s)*c.geom.subBytes+uint64(line)*64, data)
	c.clearHints(b, s)
	c.eng.WriteSlowBG(now, c.slowAddr(b, s), 64)
	return hybrid.Result{Done: now}
}

// --- Case 2: block committed, sub-block hit -----------------------------

func (c *Controller) caseFastHit(now, rmT uint64, ri *remapInfo, b uint64, s, line int, write bool, data []byte) hybrid.Result {
	super := c.superOf(b)
	si := c.setIdx(super)
	m, fr := c.fastDir.Way(si, int(ri.way))
	m.LastUse = c.seq
	idx := findOcc(fr, uint8(c.blkOff(b)), uint8(s))
	if idx < 0 {
		panic("core: remap bit set but no committed range")
	}
	rg := &fr.occ[idx]
	start := int(rg.subOff)
	cf := int(rg.cf)
	lineInRange := (s-start)*c.geom.linesPerSub + line
	c.ctr.fastHits.Inc()

	if !write {
		devAddr := c.frameAddr(si, int(ri.way), idx)
		done := c.eng.FastRead(rmT, devAddr, c.readXferBytes(cf))
		if cf > 1 {
			done += c.cfg.DecompressLatency
			c.ctr.decompressions.Inc()
		}
		c.ctr.servedFast.Inc()
		c.ctr.latFastHit.Observe(done - now)
		lineData := rg.data[lineInRange*64 : lineInRange*64+64]
		res := hybrid.Result{Done: done, ServedByFast: true, Data: lineData}
		res.Prefetched = c.chunkPrefetch(b, start, cf, lineInRange, rg.data)
		return res
	}

	// Committed layouts are frozen (Rule 4): a write that no longer fits
	// evicts the whole block to slow memory.
	copy(rg.data[lineInRange*64:], data)
	if c.rangeFits(rg.data, cf) {
		rg.dirty = true
		c.eng.FillFast(now, c.frameAddr(si, int(ri.way), idx), 64)
		return hybrid.Result{Done: now}
	}
	c.ctr.fastOverflow.Inc()
	c.evictCommittedBlock(now, si, int(ri.way), b, true)
	return hybrid.Result{Done: now}
}

// --- Case 4: block committed, sub-block miss -> bypass to slow ----------

func (c *Controller) caseFastSubMiss(now, rmT uint64, b uint64, s, line int, write bool, data []byte) hybrid.Result {
	c.ctr.fastSubMiss.Inc()
	lineAddr := b*c.geom.blockBytes + uint64(s)*c.geom.subBytes + uint64(line)*64
	var res hybrid.Result
	if write {
		c.store.WriteLine(lineAddr, data)
		c.clearHints(b, s)
		c.eng.WriteSlowBG(now, c.slowAddr(b, s)+uint64(line)*64, 64)
		res = hybrid.Result{Done: now}
	} else {
		done := c.eng.SlowRead(rmT, c.slowAddr(b, s)+uint64(line)*64, 64)
		c.ctr.servedSlow.Inc()
		c.ctr.latSlowPath.Observe(done - now)
		res = hybrid.Result{Done: done, Data: c.copyStoreLine(lineAddr)}
	}
	if !c.cfg.UseStageArea {
		// Without a stage area there is no frozen-layout rule to respect:
		// the new sub-block is inserted directly, re-sorting the frame
		// (the costly behaviour Fig. 13(c)'s "no stage" bar shows).
		c.directInsertSub(now, b, s, write)
	}
	return res
}

// --- Case 3: block staged, sub-block miss -------------------------------

func (c *Controller) caseStageSubMiss(now, stageT uint64, ssi, sw int, b uint64, s, line int, write bool, data []byte) hybrid.Result {
	fr := c.stageDir.Payload(ssi, sw)
	fr.tag.MissCnt = satAdd16(fr.tag.MissCnt, 1)
	st := &c.stageState[ssi]
	if st.mruWay == sw {
		st.mruMissCnt++
	}
	c.ctr.stageSubMiss.Inc()
	c.recordStageEvent(fr, true)

	lineAddr := b*c.geom.blockBytes + uint64(s)*c.geom.subBytes + uint64(line)*64
	var res hybrid.Result
	if write {
		c.store.WriteLine(lineAddr, data)
		c.clearHints(b, s)
		res = hybrid.Result{Done: now}
	} else {
		done := c.eng.SlowRead(stageT, c.slowAddr(b, s)+uint64(line)*64, 64)
		c.ctr.servedSlow.Inc()
		c.ctr.latSlowPath.Observe(done - now)
		res = hybrid.Result{Done: done, Data: c.copyStoreLine(lineAddr)}
	}
	// Background: stage the maximal compressible range around s (Rule 3
	// pins it to the same physical block as the block's other ranges).
	c.stageInsertRange(now, ssi, sw, b, s, write)
	return res
}

// --- Case 5: block miss everywhere --------------------------------------

func (c *Controller) caseBlockMiss(now, metaT uint64, ssi int, b uint64, s, line int, write bool, data []byte) hybrid.Result {
	c.stageState[ssi].mruMissCnt++
	c.ctr.blockMiss.Inc()

	lineAddr := b*c.geom.blockBytes + uint64(s)*c.geom.subBytes + uint64(line)*64
	var res hybrid.Result
	if write {
		c.store.WriteLine(lineAddr, data)
		c.clearHints(b, s)
		res = hybrid.Result{Done: now}
	} else {
		done := c.eng.SlowRead(metaT, c.slowAddr(b, s)+uint64(line)*64, 64)
		c.ctr.servedSlow.Inc()
		c.ctr.latSlowPath.Observe(done - now)
		res = hybrid.Result{Done: done, Data: c.copyStoreLine(lineAddr)}
	}

	if !c.cfg.UseStageArea {
		c.directInsert(now, b, s, write)
		return res
	}

	super := c.superOf(b)
	blkOff := c.blkOff(b)
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
		sw = c.stageAllocate(now, ssi, super)
		if sw < 0 {
			return res // stage allocation impossible (all ways mid-operation)
		}
	case 1:
		sw = candidates[0]
	default:
		sw = candidates[c.rng.Intn(nc)]
	}
	_ = blkOff
	c.stageInsertRange(now, ssi, sw, b, s, write)
	c.prefetchHintedRanges(now, ssi, sw, b, s)
	return res
}

// prefetchHintedRanges re-stages the ranges a previously evicted block left
// behind in compressed form: the CF2/CF4 bits kept by the fast-to-slow
// compressed writeback act as slow-to-stage prefetching hints when the block
// is fetched again (Section III-F).
func (c *Controller) prefetchHintedRanges(now uint64, ssi, sw int, b uint64, demanded int) {
	if !c.cfg.CompressedWriteback || !c.cfg.UseStageArea {
		return
	}

	super := c.superOf(b)
	blkOff := c.blkOff(b)
	for q := 0; q < 2; q++ {
		if c.cf4Hint[b]&(1<<q) != 0 && demanded/4 != q {
			if w, _ := c.stageFind(ssi, super, blkOff, q*4); w < 0 {
				c.stageInsertRange(now, ssi, sw, b, q*4, false)
			}
		}
	}
	for p := 0; p < 4; p++ {
		if c.cf2Hint[b]&(1<<p) != 0 && demanded/2 != p {
			if w, _ := c.stageFind(ssi, super, blkOff, p*2); w < 0 {
				c.stageInsertRange(now, ssi, sw, b, p*2, false)
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
func (c *Controller) chunkPrefetch(b uint64, start, cf, lineInRange int, content []byte) []hybrid.PrefetchedLine {
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
		out = append(out, hybrid.PrefetchedLine{
			Addr: rangeBase + uint64(k)*64,
			Data: content[k*64 : k*64+64],
		})
	}
	c.prefetchScratch = out
	return out
}

// clearHints invalidates the compressed-writeback hints covering sub s.
func (c *Controller) clearHints(b uint64, s int) {
	c.cf2Hint[b] &^= 1 << (s / 2)
	c.cf4Hint[b] &^= 1 << (s / 4)
}
