package core

import (
	"baryon/internal/config"
	"baryon/internal/hybrid"
	"baryon/internal/metadata"
)

// This file implements the stage area of Section III-E: range staging with
// slow-to-stage prefetching, the two-level (FIFO sub-block / LRU block)
// replacement policy, and counter ageing.

// ageStageSet right-shifts the set's miss counters every 10000 accesses, as
// the paper's ageing rule prescribes.
func (c *Controller) ageStageSet(ssi int) {
	st := &c.stageState[ssi]
	st.accSinceAge++
	if st.accSinceAge < c.cfg.StageAgeInterval {
		return
	}
	st.accSinceAge = 0
	st.mruMissCnt >>= 1
	for w := 0; w < c.geom.stageWays; w++ {
		c.stageDir.Payload(ssi, w).tag.MissCnt >>= 1
	}
}

// stageFind locates the (way, slot) whose range covers sub-block s of the
// block at blkOff within super, or (-1, -1).
func (c *Controller) stageFind(ssi int, super hybrid.SuperBlockID, blkOff, s int) (int, int) {
	for w := 0; w < c.geom.stageWays; w++ {
		fr := c.stageDir.Payload(ssi, w)
		if !fr.tag.Valid || fr.tag.Super != super {
			continue
		}
		if slot := fr.tag.FindRange(blkOff, s); slot >= 0 {
			return w, slot
		}
	}
	return -1, -1
}

// stageFindBlock returns a way staging any range of the given block, or -1.
// Rule 3 guarantees at most one such way.
func (c *Controller) stageFindBlock(ssi int, super hybrid.SuperBlockID, blkOff int) int {
	for w := 0; w < c.geom.stageWays; w++ {
		fr := c.stageDir.Payload(ssi, w)
		if fr.tag.Valid && fr.tag.Super == super && fr.tag.HasBlock(blkOff) {
			return w
		}
	}
	return -1
}

// stageVictimSlot applies the sub-block half of the two-level policy
// (hybrid.SlotFIFO): it frees and returns a slot in the frame, writing the
// victim range back to slow memory if dirty.
func (c *Controller) stageVictimSlot(now uint64, ssi, sw int) int {
	fr := c.stageDir.Payload(ssi, sw)
	slot, next := hybrid.SlotFIFO(fr.tag.FIFO, 8, func(i int) bool { return fr.tag.Slots[i].Valid })
	fr.tag.FIFO = next
	c.ctr.subReplacements.Inc()
	c.writebackStageSlot(now, fr, slot)
	fr.tag.Slots[slot] = metadata.Range{}
	return slot
}

// writebackStageSlot charges a dirty range's slow-memory write traffic
// (compressed when the optimisation of Section III-F applies); the store
// already holds its content.
func (c *Controller) writebackStageSlot(now uint64, fr *stageFrame, slot int) {
	rg := fr.tag.Slots[slot]
	if !rg.Valid || rg.Zero || !rg.Dirty {
		return
	}
	b := c.blockID(fr.tag.Super, rg.BlkOff)
	c.clearHints(b, int(rg.SubOff), int(rg.CF))
	c.writeRangeToSlow(now, b, int(rg.SubOff), int(rg.CF))
}

// writeRangeToSlow accounts the slow-device traffic of writing a range back,
// keeping it compressed when enabled and recording the CF hint for future
// slow-to-stage prefetching.
func (c *Controller) writeRangeToSlow(now uint64, b uint64, subOff, cf int) {
	compressed := c.cfg.CompressedWriteback && cf > 1 && c.rangeFits(c.rangeView(b, subOff, cf), cf)
	bytes := uint64(cf) * c.geom.subBytes
	if compressed {
		bytes = c.geom.subBytes
		c.cfHint[b] |= hintBit(subOff, cf)
		c.ctr.compressedWritebacks.Inc()
	}
	wbDone := c.eng.WriteSlowBG(now, c.slowAddr(b, subOff), bytes)
	c.ctr.latWriteback.Observe(wbDone - now)
	if t := c.eng.Tracer(); t != nil {
		t.Span("writeback", "", now, wbDone)
	}
}

// pickRange picks the maximal contiguous aligned range (Rule 2) containing
// sub s of block b that overlaps no sub-block of taken other than s and
// compresses into one sub-block slot. With hints, a matching CF hint stands
// in for the fit trial: the data already sits compressed and grouped in
// slow memory (Section III-F). It returns (start, cf).
func (c *Controller) pickRange(b uint64, s int, taken uint8, hints bool) (int, int) {
	if c.cfg.CompressionOff {
		return s, 1
	}
	taken &^= 1 << s
	for _, cf := range []int{4, 2} {
		start := s &^ (cf - 1)
		if taken>>start&(1<<cf-1) != 0 {
			continue
		}
		if hints && c.hinted(b, start, cf) || c.rangeFits(c.rangeView(b, start, cf), cf) {
			return start, cf
		}
	}
	return s, 1
}

// hinted reports whether a CF hint marks the range of cf sub-blocks from
// start of block b as written back compressed.
func (c *Controller) hinted(b uint64, start, cf int) bool {
	return c.cfHint[b]&hintBit(start, cf) != 0
}

// rangeView returns the content of cf sub-blocks starting at subOff of
// block b in place, as a view into the store, which is the only copy:
// staged and committed ranges keep none. Fit trials and writebacks read
// it; nothing may write through it or keep it.
func (c *Controller) rangeView(b uint64, subOff, cf int) []byte {
	return c.store.Bytes(c.slowAddr(b, subOff), cf*int(c.geom.subBytes))
}

// blockAllZero reports whether block b's full content is zero.
func (c *Controller) blockAllZero(b uint64) bool {
	return c.comp.IsZero(c.rangeView(b, 0, config.SubBlocksPerBlock))
}

// stageInsertRange stages the maximal range around sub s of block b into the
// stage frame (ssi, sw), applying the two-level replacement policy when the
// frame is full. dirty marks freshly written data.
func (c *Controller) stageInsertRange(now uint64, ssi, sw int, b uint64, s int, dirty bool) {
	super := c.superOf(b)
	blkOff := c.blkOff(b)
	// Rule 3: if the block already has staged ranges, they pin the frame —
	// re-resolve rather than trusting the caller, since an intervening
	// block-level replacement may have moved them.
	if pinned := c.stageFindBlock(ssi, super, blkOff); pinned >= 0 {
		sw = pinned
	}
	fr := c.stageDir.Payload(ssi, sw)
	if !fr.tag.Valid || fr.tag.Super != super {
		panic("core: stageInsertRange into a frame of another super-block")
	}

	// Rule 3 puts every staged sub-block of b in this frame.
	var taken uint8
	for _, r := range fr.tag.Slots {
		if r.Valid && int(r.BlkOff) == blkOff {
			taken |= (1<<r.CF - 1) << r.SubOff
		}
	}
	// Z-bit: an all-zero block is staged as a single descriptor with no
	// data movement at all.
	zero := c.cfg.ZeroBlockOpt && !dirty && taken == 0 && c.blockAllZero(b)
	var start, cf int
	if !zero {
		start, cf = c.pickRange(b, s, taken, true)
	}

	slot := fr.tag.FreeSlot()
	if slot < 0 {
		slot = c.stageFullSlot(now, ssi, &sw, b)
		fr = c.stageDir.Payload(ssi, sw)
	}
	if zero {
		fr.tag.Slots[slot] = metadata.Range{Valid: true, CF: 4, Zero: true, BlkOff: uint8(blkOff)}
		return
	}

	fr.tag.Slots[slot] = metadata.Range{
		Valid: true, CF: uint8(cf), Dirty: dirty,
		BlkOff: uint8(blkOff), SubOff: uint8(start),
	}
	c.ctr.rangeFetches.Inc()
	c.ctr.rangeCFSum.Add(uint64(cf))

	// Traffic: the range is fetched from slow memory (one compressed
	// sub-block when a CF hint applies, the raw range otherwise) and written
	// into the stage region of fast memory.
	fetch := uint64(cf) * c.geom.subBytes
	if c.cfg.CompressedWriteback && c.hinted(b, start, cf) {
		fetch = c.geom.subBytes
	}
	if fetch > 64 {
		c.eng.FetchSlow(now, c.slowAddr(b, start), fetch-64) // demanded line already charged
	}
	c.eng.FillFast(now, c.stageFrameAddr(ssi, sw, slot), c.geom.subBytes)
}

// stageFullSlot resolves a full target frame with the two-level policy of
// Fig. 8: if the frame is the set's block-level victim, do a sub-block
// (SlotFIFO) replacement inside it; otherwise claim the victim way at block
// level, move block b's existing ranges into it (Rule 3), and return a free
// slot there. sw is updated to the frame finally holding the block.
func (c *Controller) stageFullSlot(now uint64, ssi int, sw *int, b uint64) int {
	lru := c.stageDir.Victim(ssi, c.stageRep)
	if !c.cfg.TwoLevelReplacement || lru == *sw {
		return c.stageVictimSlot(now, ssi, *sw)
	}

	// Known defect (ROADMAP, "empty-way block replacements"): an empty victim way counts too.
	c.ctr.blockReplacements.Inc()
	nw := c.claimStageFrame(now, ssi, lru, c.superOf(b))

	// Move b's ranges to the new frame to keep Rule 3 (the move also gives
	// re-grouping a chance to reduce fragmentation, as the paper notes).
	// Slots are scanned in ascending order, so b's ranges keep their
	// relative order in the new frame.
	blkOff := c.blkOff(b)
	old := c.stageDir.Payload(ssi, *sw)
	slot := 0
	for oldSlot := range old.tag.Slots {
		if r := old.tag.Slots[oldSlot]; !r.Valid || int(r.BlkOff) != blkOff {
			continue
		}
		nw.tag.Slots[slot] = old.tag.Slots[oldSlot]
		old.tag.Slots[oldSlot] = metadata.Range{}
		// Intra-fast-memory move traffic.
		c.eng.FillFast(now, c.stageFrameAddr(ssi, lru, slot), c.geom.subBytes)
		slot++
	}
	*sw = lru
	if slot >= 8 {
		// The block alone fills the frame; fall back to a sub-block victim.
		return c.stageVictimSlot(now, ssi, lru)
	}
	return slot // first free slot after the moved ranges
}

// claimStageFrame retires stage way (ssi, w), committing or evicting what
// it holds (finishStageFrame), and re-tags it, empty, for super.
func (c *Controller) claimStageFrame(now uint64, ssi, w int, super hybrid.SuperBlockID) *stageFrame {
	c.finishStageFrame(now, ssi, w)
	m, fr := c.stageDir.Way(ssi, w)
	fr.tag = metadata.StageTag{Valid: true, Super: super}
	*m = hybrid.WayMeta{Key: uint64(super), Valid: true, LastUse: c.seq, AllocSeq: c.seq}
	fr.events = fr.events[:0]
	fr.instStart = c.instructionsSeen
	return fr
}
