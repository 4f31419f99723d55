package core

import (
	"math/bits"

	"baryon/internal/config"
	"baryon/internal/hybrid"
	"baryon/internal/metadata"
)

// This file implements the selective commit policy (Section III-E, Eq. 1),
// the commit operation itself (layout sorting and the compact remap format
// of Rule 4), fast-area evictions, and the flat-scheme swap mechanics of
// Section III-F.

// finishStageFrame retires stage frame (ssi, w): it either commits the frame
// to the cache/flat area or evicts it to slow memory, then clears it.
func (c *Controller) finishStageFrame(now uint64, ssi, w int) {
	sm, fr := c.stageDir.Way(ssi, w)
	if !fr.tag.Valid {
		return
	}
	c.emitStagePhase(fr)

	si := c.setIdx(fr.tag.Super)

	slotsNeeded := 0
	dirtyStage := 0
	for _, rg := range fr.tag.Slots {
		if rg.Valid && !rg.Zero {
			slotsNeeded++
			if rg.Dirty {
				dirtyStage++
			}
		}
	}

	// Target selection: append into a frame already holding this super-block
	// when it has room (this is how one super-block ends up spanning
	// multiple physical blocks only when needed), else the area's
	// replacement victim (LRU for low-associative, FIFO for fully
	// associative, Section III-E).
	appendW := -1
	for wi := 0; wi < c.geom.ways; wi++ {
		m, f := c.fastDir.Way(si, wi)
		if m.Valid && hybrid.SuperBlockID(m.Key) == fr.tag.Super &&
			len(f.occ)+slotsNeeded <= 8 {
			appendW = wi
			break
		}
	}
	victimW := appendW
	dirtyVictim := 0
	if victimW < 0 {
		victimW = c.fastDir.Victim(si, c.fastRep)
		vm, v := c.fastDir.Way(si, victimW)
		if vm.Valid {
			if c.cfg.Mode == config.ModeFlat {
				dirtyVictim = len(v.occ) // all sub-blocks swap in flat mode
			} else {
				for _, rg := range v.occ {
					if rg.dirty {
						dirtyVictim++
					}
				}
			}
		}
	}

	if c.shouldCommit(ssi, fr, dirtyStage, dirtyVictim) &&
		c.flatCommitFeasible(si, fr, victimW, appendW >= 0) {
		c.commitStageFrame(now, ssi, w, si, victimW, appendW >= 0)
	} else {
		c.evictStageFrame(now, ssi, w)
	}
	fr.tag = metadata.StageTag{}
	// Commit moved its slots' buffers into the committed frame (and nil'd
	// them); whatever is left is dead and goes back to the pool.
	for slot := range fr.data {
		c.freeRangeBuf(fr.data[slot])
		fr.data[slot] = nil
	}
	fr.events = fr.events[:0]
	sm.Valid = false
}

// shouldCommit evaluates Eq. 1: B = k*(MRUMissCnt/assoc - MissCnt) +
// (#Dirty_stage - #Dirty_cache/flat); commit when B >= 0.
func (c *Controller) shouldCommit(ssi int, fr *stageFrame, dirtyStage, dirtyVictim int) bool {
	if c.cfg.CommitAll {
		return true
	}
	stability := float64(c.stageState[ssi].mruMissCnt)/float64(c.geom.stageWays) - float64(fr.tag.MissCnt)
	if c.cfg.CommitK < 0 { // k = infinity: stability only
		return stability >= 0
	}
	benefit := c.cfg.CommitK*stability + float64(dirtyStage-dirtyVictim)
	return benefit >= 0
}

// flatCommitFeasible verifies the flat-scheme invariant of Section III-F:
// swapping the victim's original content out requires at least one block's
// worth of free slow sub-block spaces within the committing super-block.
func (c *Controller) flatCommitFeasible(si int, fr *stageFrame, victimW int, appending bool) bool {
	if c.cfg.Mode != config.ModeFlat || appending {
		return true
	}
	vm, v := c.fastDir.Way(si, victimW)
	if !vm.Valid {
		return true // empty frame, nothing to swap out
	}
	// Victim holds its native block and that block is resident: its content
	// must spread into the super-block's freed slow spaces.
	if !c.frameHoldsNative(vm, v) {
		return true // victim data returns to its original slow locations
	}
	free := 0
	for _, rg := range fr.tag.Slots {
		if !rg.Valid {
			continue
		}
		if rg.Zero {
			free += config.SubBlocksPerBlock
		} else {
			free += int(rg.CF)
		}
	}
	// Plus spaces freed by blocks of this super already committed elsewhere.
	base := uint64(fr.tag.Super) * c.geom.superBlocks
	for off := uint64(0); off < c.geom.superBlocks; off++ {
		b := base + off
		if b < uint64(len(c.remap)) {
			ri := &c.remap[b]
			if ri.z {
				free += config.SubBlocksPerBlock
			} else {
				free += bits.OnesCount8(ri.remap)
			}
		}
	}
	if free < config.SubBlocksPerBlock {
		c.ctr.commitAborts.Inc()
		return false
	}
	return true
}

// frameHoldsNative reports whether a flat-mode frame still holds its native
// block's content.
func (c *Controller) frameHoldsNative(m *hybrid.WayMeta, f *fastFrame) bool {
	if c.cfg.Mode != config.ModeFlat {
		return false
	}
	ri := &c.remap[f.native]
	return ri.remap != 0 && m.Valid && uint64(c.superOf(f.native)) == m.Key &&
		findOcc(f, uint8(c.blkOff(f.native)), 0) >= 0
}

// evictStageFrame writes the frame's dirty ranges back to slow memory.
func (c *Controller) evictStageFrame(now uint64, ssi, w int) {
	fr := c.stageDir.Payload(ssi, w)
	for slot := range fr.tag.Slots {
		c.writebackStageSlot(now, fr, slot)
	}
	c.ctr.evictsToSlow.Inc()
}

// commitStageFrame moves the frame's contents into the cache/flat area:
// the victim frame is evicted (or an existing same-super frame appended to),
// the ranges are sorted into the frozen dense layout of Rule 4, and the
// remap entries are rewritten in the compact format.
func (c *Controller) commitStageFrame(now uint64, ssi, w, si, targetW int, appending bool) {
	fr := c.stageDir.Payload(ssi, w)
	tm, target := c.fastDir.Way(si, targetW)

	if !appending && tm.Valid {
		c.evictFastFrame(now, si, targetW)
	}

	commitDone := now
	if !appending || !tm.Valid {
		*tm = hybrid.WayMeta{Key: uint64(fr.tag.Super), Valid: true}
		target.occ = resetOcc(target.occ) // keep capacity; eviction freed the buffers
	} else {
		// Appending rewrites the frame's dense layout (a re-sort).
		c.ctr.resortRewrites.Inc()
		commitDone = maxU64(commitDone,
			c.eng.FillFast(now, c.frameAddr(si, targetW, 0), uint64(len(target.occ))*c.geom.subBytes))
	}
	tm.LastUse = c.seq
	tm.AllocSeq = c.seq
	c.ensureOccCap(target)

	// Gather the committed ranges; Z-descriptors become Z remap entries.
	for slot, rg := range fr.tag.Slots {
		if !rg.Valid {
			continue
		}
		if rg.Zero {
			b := c.blockID(fr.tag.Super, rg.BlkOff)
			ri := &c.remap[b]
			*ri = remapInfo{z: true, way: -1}
			continue
		}
		target.occ = append(target.occ, occRange{
			blkOff: rg.BlkOff, subOff: rg.SubOff, cf: rg.CF,
			dirty: rg.Dirty, data: fr.data[slot],
		})
		fr.data[slot] = nil // ownership moved to the committed frame
		// Traffic: stage read + cache/flat-area write, both in fast memory.
		commitDone = maxU64(commitDone,
			c.eng.ReadFastBG(now, c.stageFrameAddr(ssi, w, slot), c.geom.subBytes))
	}
	sortOcc(target.occ)
	commitDone = maxU64(commitDone,
		c.eng.FillFast(now, c.frameAddr(si, targetW, 0), uint64(len(target.occ))*c.geom.subBytes))
	c.ctr.latCommit.Observe(commitDone - now)
	if t := c.eng.Tracer(); t != nil {
		t.Span("commit", "", now, commitDone)
	}

	// Rewrite the remap entries of every block present in the target frame.
	c.rebuildRemap(si, targetW)
	c.metaUpdate(now, fr.tag.Super)
	c.ctr.commits.Inc()
	for wi, m := range c.fastDir.SetMeta(si) {
		if wi != targetW && m.Valid && hybrid.SuperBlockID(m.Key) == fr.tag.Super {
			c.ctr.multiFrameSupers.Inc()
			break
		}
	}
}

// sortOcc orders ranges by (blkOff, subOff): the frozen sorted layout.
// Insertion sort — a frame holds at most 8 ranges and sort.Slice's
// reflection swapper allocates per call. Keys are unique within a frame, so
// the order is identical to any comparison sort.
func sortOcc(occ []occRange) {
	for i := 1; i < len(occ); i++ {
		for j := i; j > 0 && occLess(&occ[j], &occ[j-1]); j-- {
			occ[j], occ[j-1] = occ[j-1], occ[j]
		}
	}
}

func occLess(a, b *occRange) bool {
	if a.blkOff != b.blkOff {
		return a.blkOff < b.blkOff
	}
	return a.subOff < b.subOff
}

// ensureOccCap gives a frame its permanent occ backing on first touch,
// carved from the controller's shared slab. A frame holds at most
// SubBlocksPerBlock ranges, so the capacity never needs to grow and the
// append sites below never reallocate.
func (c *Controller) ensureOccCap(f *fastFrame) {
	if cap(f.occ) != 0 {
		return
	}
	const ways = config.SubBlocksPerBlock
	if len(c.occSlab) < ways {
		c.occSlab = make([]occRange, 64*ways)
	}
	f.occ = c.occSlab[:0:ways]
	c.occSlab = c.occSlab[ways:]
}

// resetOcc drops every entry (the caller has dealt with the buffers) and
// returns the empty slice with its capacity kept for reuse.
func resetOcc(occ []occRange) []occRange {
	for i := range occ {
		occ[i] = occRange{}
	}
	return occ[:0]
}

// findOcc returns the index of the range covering (blkOff, sub), or -1.
func findOcc(f *fastFrame, blkOff, sub uint8) int {
	for i := range f.occ {
		rg := &f.occ[i]
		if rg.blkOff == blkOff && sub >= rg.subOff && sub < rg.subOff+rg.cf {
			return i
		}
	}
	return -1
}

// rebuildRemap recomputes the remap entries of every block stored in frame
// (si, way) from its occupancy (the architectural metadata the compact
// format encodes).
func (c *Controller) rebuildRemap(si, way int) {
	m, f := c.fastDir.Way(si, way)
	super := hybrid.SuperBlockID(m.Key)
	for i := range f.occ {
		rg := &f.occ[i]
		b := c.blockID(super, rg.BlkOffU8())
		ri := &c.remap[b]
		// Reset the entry on the block's first range. occ holds at most 8
		// entries, so a linear scan of the prefix beats any allocated set.
		first := true
		for j := 0; j < i; j++ {
			if f.occ[j].blkOff == rg.blkOff {
				first = false
				break
			}
		}
		if first {
			ri.remap, ri.cf2, ri.cf4, ri.z = 0, 0, 0, false
			ri.way = int32(way)
		}
		for s := rg.subOff; s < rg.subOff+rg.cf; s++ {
			ri.remap |= 1 << s
		}
		switch rg.cf {
		case 2:
			ri.cf2 |= 1 << (rg.subOff / 2)
		case 4:
			ri.cf4 |= 1 << (rg.subOff / 4)
		}
	}
}

// BlkOffU8 returns the range's block offset (helper for rebuildRemap).
func (rg *occRange) BlkOffU8() uint8 { return rg.blkOff }

// evictFastFrame evicts every block committed in frame (si, way) to slow
// memory, handling the flat-scheme swap mechanics.
func (c *Controller) evictFastFrame(now uint64, si, way int) {
	m, f := c.fastDir.Way(si, way)
	if !m.Valid {
		return
	}
	super := hybrid.SuperBlockID(m.Key)
	flat := c.cfg.Mode == config.ModeFlat
	nativeResident := c.frameHoldsNative(m, f)

	if flat && !nativeResident && len(f.occ) > 0 {
		// Three-way swap (Section III-F): the frame's original content is
		// spread over the super-block; rearranging it so the evicted
		// committed blocks can return to their original slow locations
		// costs one extra block move in slow memory.
		c.ctr.swapThreeWay.Inc()
		c.eng.FetchSlow(now, c.slowAddr(f.native, 0), c.geom.blockBytes)
		c.eng.WriteSlowBG(now, c.slowAddr(f.native, 0), c.geom.blockBytes)
	}

	for i := range f.occ {
		rg := &f.occ[i]
		b := c.blockID(super, rg.blkOff)
		isNative := flat && b == f.native
		// Push content back to the canonical store.
		for k := 0; k < int(rg.cf); k++ {
			copy(c.slowSub(b, int(rg.subOff)+k), rg.data[uint64(k)*c.geom.subBytes:])
			if rg.dirty {
				c.clearHints(b, int(rg.subOff)+k)
			}
		}
		switch {
		case isNative:
			// Handled below as a single spread write.
		case flat, rg.dirty:
			// Migrated blocks swap back entirely (all sub-blocks move); in
			// the cache scheme only dirty ranges write back.
			c.writeRangeToSlow(now, b, int(rg.subOff), int(rg.cf), rg.data)
		}
	}
	if nativeResident {
		// Spread the native block into the freed slow sub-block spaces.
		c.ctr.swapSpread.Inc()
		c.eng.WriteSlowBG(now, c.slowAddr(f.native, 0), c.geom.blockBytes)
	}

	// Clear the remap entries of every block that lived here, and recycle
	// the range buffers (the canonical store holds the content now).
	for i := range f.occ {
		b := c.blockID(super, f.occ[i].blkOff)
		ri := &c.remap[b]
		if ri.way == int32(way) {
			*ri = remapInfo{way: -1}
		}
		c.freeRangeBuf(f.occ[i].data)
	}
	c.metaUpdate(now, super)
	*m = hybrid.WayMeta{}
	f.occ = resetOcc(f.occ)
}

// evictCommittedBlock evicts a single block from its committed frame
// (the whole-block eviction of case 2 write overflows). The frozen dense
// layout forces the remaining ranges to be compacted, which we charge as
// fast-memory move traffic.
func (c *Controller) evictCommittedBlock(now uint64, si, way int, b uint64, overflow bool) {
	m, f := c.fastDir.Way(si, way)
	blkOff := uint8(c.blkOff(b))
	kept := f.occ[:0]
	moved := 0
	removed := 0
	for i := range f.occ {
		rg := f.occ[i]
		if rg.blkOff != blkOff {
			if removed > 0 {
				moved++
			}
			kept = append(kept, rg)
			continue
		}
		removed++
		for k := 0; k < int(rg.cf); k++ {
			copy(c.slowSub(b, int(rg.subOff)+k), rg.data[uint64(k)*c.geom.subBytes:])
			if rg.dirty {
				c.clearHints(b, int(rg.subOff)+k)
			}
		}
		if rg.dirty || c.cfg.Mode == config.ModeFlat {
			c.writeRangeToSlow(now, b, int(rg.subOff), int(rg.cf), rg.data)
		}
		c.freeRangeBuf(rg.data)
	}
	f.occ = kept
	if moved > 0 {
		c.ctr.resortRewrites.Inc()
		c.eng.FillFast(now, c.frameAddr(si, way, 0), uint64(moved)*c.geom.subBytes)
	}
	ri := &c.remap[b]
	*ri = remapInfo{way: -1}
	if len(f.occ) == 0 && !(c.cfg.Mode == config.ModeFlat && c.frameHoldsNative(m, f)) {
		*m = hybrid.WayMeta{} // occ is already empty; native stays with the frame
	}
	c.rebuildRemapSafe(si, way)
	c.metaUpdate(now, c.superOf(b))
}

// rebuildRemapSafe re-derives remap entries after a partial eviction when
// the frame is still valid.
func (c *Controller) rebuildRemapSafe(si, way int) {
	if m, _ := c.fastDir.Way(si, way); m.Valid {
		c.rebuildRemap(si, way)
	}
}

// directInsert implements the no-stage-area ablation of Fig. 13(c): fetched
// ranges are inserted straight into the committed area, and every insertion
// re-sorts the frozen layout of its frame.
func (c *Controller) directInsert(now uint64, b uint64, s int, dirty bool) {
	super := c.superOf(b)
	si := c.setIdx(super)

	// Choose the range (no stage-overlap concerns: the block is absent).
	start, cf := s, 1
	for _, try := range []int{4, 2} {
		st := s &^ (try - 1)
		if c.rangeFits(c.rangeContentScratch(b, st, try), try) {
			start, cf = st, try
			break
		}
	}
	content := c.rangeContent(b, start, cf)

	targetW := -1
	for wi := 0; wi < c.geom.ways; wi++ {
		m, f := c.fastDir.Way(si, wi)
		if m.Valid && hybrid.SuperBlockID(m.Key) == super && len(f.occ) < 8 {
			targetW = wi
			break
		}
	}
	if targetW < 0 {
		targetW = c.fastDir.Victim(si, c.fastRep)
		tm, tf := c.fastDir.Way(si, targetW)
		if tm.Valid {
			c.evictFastFrame(now, si, targetW)
		}
		native, occ := tf.native, resetOcc(tf.occ)
		*tm = hybrid.WayMeta{Key: uint64(super), Valid: true}
		*tf = fastFrame{native: native, occ: occ}
	}
	m, f := c.fastDir.Way(si, targetW)
	m.LastUse = c.seq
	m.AllocSeq = c.seq
	c.ensureOccCap(f)
	f.occ = append(f.occ, occRange{blkOff: uint8(c.blkOff(b)), subOff: uint8(start), cf: uint8(cf), dirty: dirty, data: content})
	sortOcc(f.occ)
	// Every insertion re-sorts the dense layout: rewrite the frame.
	c.ctr.resortRewrites.Inc()
	c.eng.FetchSlow(now, c.slowAddr(b, start), uint64(cf)*c.geom.subBytes)
	c.eng.FillFast(now, c.frameAddr(si, targetW, 0), uint64(len(f.occ))*c.geom.subBytes)
	c.rebuildRemap(si, targetW)
	c.metaUpdate(now, super)
}

// directInsertSub (no-stage ablation) adds one more range of an already
// committed block into its frame, re-sorting the dense layout.
func (c *Controller) directInsertSub(now uint64, b uint64, s int, dirty bool) {
	ri := &c.remap[b]
	if ri.way < 0 {
		return
	}
	super := c.superOf(b)
	si := c.setIdx(super)
	m, f := c.fastDir.Way(si, int(ri.way))
	if !m.Valid || len(f.occ) >= 8 {
		return
	}
	start, cf := s, 1
	for _, try := range []int{4, 2} {
		st := s &^ (try - 1)
		overlaps := false
		for i := st; i < st+try; i++ {
			if i != s && ri.remap&(1<<i) != 0 {
				overlaps = true
				break
			}
		}
		if overlaps {
			continue
		}
		if c.rangeFits(c.rangeContentScratch(b, st, try), try) {
			start, cf = st, try
			break
		}
	}
	c.ensureOccCap(f)
	f.occ = append(f.occ, occRange{blkOff: uint8(c.blkOff(b)), subOff: uint8(start), cf: uint8(cf), dirty: dirty, data: c.rangeContent(b, start, cf)})
	sortOcc(f.occ)
	c.ctr.resortRewrites.Inc()
	c.eng.FetchSlow(now, c.slowAddr(b, start), uint64(cf)*c.geom.subBytes)
	c.eng.FillFast(now, c.frameAddr(si, int(ri.way), 0), uint64(len(f.occ))*c.geom.subBytes)
	c.rebuildRemap(si, int(ri.way))
	c.metaUpdate(now, super)
}
