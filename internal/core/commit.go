package core

import (
	"math/bits"

	"baryon/internal/config"
	"baryon/internal/hybrid"
	"baryon/internal/metadata"
)

// This file implements the selective commit policy (Section III-E, Eq. 1),
// the commit operation itself (the sorted layout of Rule 4, recorded only
// in the compact remap entries), fast-area evictions, and the flat-scheme
// swap mechanics of Section III-F.

// finishStageFrame retires stage frame (ssi, w): it either commits the frame
// to the cache/flat area or evicts it to slow memory. The caller re-tags it
// (claimStageFrame).
func (c *Controller) finishStageFrame(now uint64, ssi, w int) {
	fr := c.stageDir.Payload(ssi, w)
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
	appendW := c.frameWithRoom(si, fr.tag.Super, slotsNeeded)
	victimW := appendW
	dirtyVictim := 0
	if victimW < 0 {
		victimW = c.fastDir.Victim(si, c.fastRep)
		if c.cfg.Mode == config.ModeFlat {
			dirtyVictim = c.frameSlots(si, victimW) // all sub-blocks swap in flat mode
		} else {
			c.eachFrameBlock(si, victimW, func(b uint64, e *metadata.RemapEntry) {
				for start, cf := e.NextRange(0); cf > 0; start, cf = e.NextRange(start + cf) {
					if c.dirty[b]&(1<<start) != 0 {
						dirtyVictim++
					}
				}
			})
		}
	}

	if c.shouldCommit(ssi, fr, dirtyStage, dirtyVictim) &&
		c.flatCommitFeasible(si, fr, victimW, appendW >= 0) {
		c.commitStageFrame(now, ssi, w, si, victimW, appendW >= 0)
	} else {
		c.evictStageFrame(now, ssi, w)
	}
}

// frameWithRoom returns the first way of fast set si committed to super
// with room for n more ranges, or -1.
func (c *Controller) frameWithRoom(si int, super hybrid.SuperBlockID, n int) int {
	meta := c.fastDir.SetMeta(si)
	for w := range meta {
		if m := &meta[w]; m.Valid && hybrid.SuperBlockID(m.Key) == super && c.frameSlots(si, w)+n <= 8 {
			return w
		}
	}
	return -1
}

// eachFrameBlock calls fn, in block order, with each OS block committed in
// fast frame (si, way) and its remap entry: the entries of the frame's
// super-block (Rule 1) that point at the way. fn may clear the entry.
func (c *Controller) eachFrameBlock(si, way int, fn func(b uint64, e *metadata.RemapEntry)) {
	m := &c.fastDir.SetMeta(si)[way]
	if !m.Valid {
		return
	}
	super := hybrid.SuperBlockID(m.Key)
	entries := c.superEntries(super)
	for off := range entries {
		if entries[off].PointsAt(uint32(way)) {
			fn(c.blockID(super, uint8(off)), &entries[off])
		}
	}
}

// frameSlots returns how many slots fast frame (si, way) fills.
func (c *Controller) frameSlots(si, way int) int {
	m := &c.fastDir.SetMeta(si)[way]
	if !m.Valid {
		return 0
	}
	return metadata.SlotsAt(c.superEntries(hybrid.SuperBlockID(m.Key)), uint32(way))
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
	// Victim holds its native block and that block is resident: its content
	// must spread into the super-block's freed slow spaces. An empty frame
	// has nothing to swap out, and the blocks of any other victim return to
	// their original slow locations.
	if !c.frameHoldsNative(si, victimW) {
		return true
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
	for _, e := range c.superEntries(fr.tag.Super) {
		if e.Z {
			free += config.SubBlocksPerBlock
		} else {
			free += bits.OnesCount8(e.Remap)
		}
	}
	if free < config.SubBlocksPerBlock {
		c.ctr.commitAborts.Inc()
		return false
	}
	return true
}

// frameHoldsNative reports whether flat-area frame (si, way) still holds
// its native block's content: the native block's sub-block 0 is remapped
// to this way.
func (c *Controller) frameHoldsNative(si, way int) bool {
	b, ok := c.nativeOf(si, way)
	return ok && c.remap[b].Remap&1 != 0 && c.remap[b].Pointer == uint32(way)
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
// the victim frame is evicted (or an existing same-super frame appended to)
// and each range is recorded in its block's remap entry, which places it in
// the frozen dense layout of Rule 4.
func (c *Controller) commitStageFrame(now uint64, ssi, w, si, targetW int, appending bool) {
	fr := c.stageDir.Payload(ssi, w)
	tm := &c.fastDir.SetMeta(si)[targetW]

	if !appending && tm.Valid {
		c.evictFastFrame(now, si, targetW)
	}

	commitDone := now
	if !appending || !tm.Valid {
		*tm = hybrid.WayMeta{Key: uint64(fr.tag.Super), Valid: true}
	} else {
		// Appending rewrites the frame's dense layout (a re-sort).
		c.ctr.resortRewrites.Inc()
		commitDone = max(commitDone,
			c.eng.FillFast(now, c.frameAddr(si, targetW, 0), uint64(c.frameSlots(si, targetW))*c.geom.subBytes))
	}
	tm.LastUse = c.seq
	tm.AllocSeq = c.seq

	// Record the committed ranges; Z-descriptors become Z remap entries,
	// unless the block also commits real ranges, which then win.
	for slot, rg := range fr.tag.Slots {
		if !rg.Valid {
			continue
		}
		b := c.blockID(fr.tag.Super, rg.BlkOff)
		if rg.Zero {
			if c.remap[b].Remap == 0 {
				c.remap[b] = metadata.RemapEntry{Z: true}
			}
			continue
		}
		c.commitRange(b, targetW, int(rg.SubOff), int(rg.CF), rg.Dirty)
		// Traffic: stage read + cache/flat-area write, both in fast memory.
		commitDone = max(commitDone,
			c.eng.ReadFastBG(now, c.stageFrameAddr(ssi, w, slot), c.geom.subBytes))
	}
	commitDone = max(commitDone,
		c.eng.FillFast(now, c.frameAddr(si, targetW, 0), uint64(c.frameSlots(si, targetW))*c.geom.subBytes))
	c.ctr.latCommit.Observe(commitDone - now)
	if t := c.eng.Tracer(); t != nil {
		t.Span("commit", "", now, commitDone)
	}

	c.metaUpdate(now, fr.tag.Super)
	c.ctr.commits.Inc()
	for wi, m := range c.fastDir.SetMeta(si) {
		if wi != targetW && m.Valid && hybrid.SuperBlockID(m.Key) == fr.tag.Super {
			c.ctr.multiFrameSupers.Inc()
			break
		}
	}
}

// commitRange records sub-blocks start..start+cf-1 of block b, one aligned
// range (Rule 2), as committed in way: its remap and CF bits, the way
// pointer (Rule 3 keeps all of a block's ranges in one way) and, for a
// written range, its dirty bits. A Z entry gives way to the range.
func (c *Controller) commitRange(b uint64, way, start, cf int, dirty bool) {
	e := &c.remap[b]
	if e.Z {
		*e = metadata.RemapEntry{}
	}
	mask := uint8(1<<cf-1) << start
	e.Remap |= mask
	e.Pointer = uint32(way)
	switch cf {
	case 2:
		e.CF2 |= 1 << (start / 2)
	case 4:
		e.CF4 |= 1 << (start / 4)
	}
	if dirty {
		c.dirty[b] |= mask
	}
}

// uncommit clears block b's remap entry and dirty bits.
func (c *Controller) uncommit(b uint64) {
	c.remap[b] = metadata.RemapEntry{}
	c.dirty[b] = 0
}

// evictFastFrame evicts every block committed in frame (si, way) to slow
// memory, handling the flat-scheme swap mechanics.
func (c *Controller) evictFastFrame(now uint64, si, way int) {
	m := &c.fastDir.SetMeta(si)[way]
	if !m.Valid {
		return
	}
	super := hybrid.SuperBlockID(m.Key)
	flat := c.cfg.Mode == config.ModeFlat
	native, homed := c.nativeOf(si, way)
	nativeResident := c.frameHoldsNative(si, way)

	if homed && !nativeResident && c.frameSlots(si, way) > 0 {
		// Three-way swap (Section III-F): the frame's original content is
		// spread over the super-block; rearranging it so the evicted
		// committed blocks can return to their original slow locations
		// costs one extra block move in slow memory.
		c.ctr.swapThreeWay.Inc()
		c.eng.FetchSlow(now, c.slowAddr(native, 0), c.geom.blockBytes)
		c.eng.WriteSlowBG(now, c.slowAddr(native, 0), c.geom.blockBytes)
	}

	c.eachFrameBlock(si, way, func(b uint64, e *metadata.RemapEntry) {
		for start, cf := e.NextRange(0); cf > 0; start, cf = e.NextRange(start + cf) {
			dirty := c.dirty[b]&(1<<start) != 0
			if dirty {
				c.clearHints(b, start, cf)
			}
			switch {
			case homed && b == native:
				// Handled below as a single spread write.
			case flat, dirty:
				// Migrated blocks swap back entirely (all sub-blocks move);
				// in the cache scheme only dirty ranges write back.
				c.writeRangeToSlow(now, b, start, cf)
			}
		}
	})
	if nativeResident {
		// Spread the native block into the freed slow sub-block spaces.
		c.ctr.swapSpread.Inc()
		c.eng.WriteSlowBG(now, c.slowAddr(native, 0), c.geom.blockBytes)
	}

	// Clear the remap entries of every block that lived here.
	c.eachFrameBlock(si, way, func(b uint64, _ *metadata.RemapEntry) { c.uncommit(b) })
	c.metaUpdate(now, super)
	*m = hybrid.WayMeta{}
}

// evictCommittedBlock evicts a single block from its committed frame
// (the whole-block eviction of case 2 write overflows). The frozen dense
// layout forces the ranges behind it to be compacted, which we charge as
// fast-memory move traffic.
func (c *Controller) evictCommittedBlock(now uint64, si, way int, b uint64) {
	entries := c.superEntries(c.superOf(b))
	off := c.blkOff(b)
	e := entries[off]
	for start, cf := e.NextRange(0); cf > 0; start, cf = e.NextRange(start + cf) {
		dirty := c.dirty[b]&(1<<start) != 0
		if dirty {
			c.clearHints(b, start, cf)
		}
		if dirty || c.cfg.Mode == config.ModeFlat {
			c.writeRangeToSlow(now, b, start, cf)
		}
	}
	c.uncommit(b)
	if moved := metadata.SlotsAt(entries[off+1:], uint32(way)); moved > 0 {
		c.ctr.resortRewrites.Inc()
		c.eng.FillFast(now, c.frameAddr(si, way, 0), uint64(moved)*c.geom.subBytes)
	}
	if c.frameSlots(si, way) == 0 {
		c.fastDir.SetMeta(si)[way] = hybrid.WayMeta{}
	}
	c.metaUpdate(now, c.superOf(b))
}

// directInsert implements the no-stage-area ablation of Fig. 13(c): the
// range around sub s of block b is fetched straight into the committed
// area, and every insertion re-sorts the frozen layout of its frame. The
// range goes to the frame already holding b (Rule 3), which takes nothing
// more once full; else to a frame of b's super-block with room; else to
// the area's victim. CF hints are not trusted here: a stale one can
// outlive a lost write (ROADMAP, "lost write").
func (c *Controller) directInsert(now uint64, b uint64, s int, dirty bool) {
	super := c.superOf(b)
	si := c.setIdx(super)
	e := &c.remap[b]
	var w, start, cf int
	if e.Remap != 0 {
		w = int(e.Pointer)
		if c.frameSlots(si, w) >= 8 {
			return
		}
		start, cf = c.pickRange(b, s, e.Remap, false)
	} else {
		start, cf = c.pickRange(b, s, 0, false)
		if w = c.frameWithRoom(si, super, 1); w < 0 {
			w = c.fastDir.Victim(si, c.fastRep)
			c.evictFastFrame(now, si, w)
		}
		c.fastDir.SetMeta(si)[w] = hybrid.WayMeta{Key: uint64(super), Valid: true, LastUse: c.seq, AllocSeq: c.seq}
	}
	c.commitRange(b, w, start, cf, dirty)
	// Every insertion re-sorts the dense layout: rewrite the frame.
	c.ctr.resortRewrites.Inc()
	c.eng.FetchSlow(now, c.slowAddr(b, start), uint64(cf)*c.geom.subBytes)
	c.eng.FillFast(now, c.frameAddr(si, w, 0), uint64(c.frameSlots(si, w))*c.geom.subBytes)
	c.metaUpdate(now, super)
}
