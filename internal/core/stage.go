package core

import (
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

// removeStageSlot clears one slot (no writeback; callers handle data) and
// recycles its range buffer. Callers that move the buffer to another frame
// must nil fr.data[slot] first, or the moved buffer would be recycled while
// still referenced.
func (c *Controller) removeStageSlot(fr *stageFrame, slot int) {
	fr.tag.Slots[slot] = metadata.Range{}
	c.freeRangeBuf(fr.data[slot])
	fr.data[slot] = nil
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
	c.removeStageSlot(fr, slot)
	return slot
}

// writebackStageSlot pushes a dirty range's content to the canonical store
// and charges the slow-memory write traffic (compressed when the
// optimisation of Section III-F applies).
func (c *Controller) writebackStageSlot(now uint64, fr *stageFrame, slot int) {
	rg := fr.tag.Slots[slot]
	if !rg.Valid || rg.Zero || !rg.Dirty {
		return
	}
	b := c.blockID(fr.tag.Super, rg.BlkOff)
	content := fr.data[slot]
	for i := 0; i < int(rg.CF); i++ {
		copy(c.slowSub(b, int(rg.SubOff)+i), content[uint64(i)*c.geom.subBytes:])
		c.clearHints(b, int(rg.SubOff)+i)
	}
	c.writeRangeToSlow(now, b, int(rg.SubOff), int(rg.CF), content)
}

// writeRangeToSlow accounts the slow-device traffic of writing a range back,
// keeping it compressed when enabled and recording the CF hint for future
// slow-to-stage prefetching.
func (c *Controller) writeRangeToSlow(now uint64, b uint64, subOff, cf int, content []byte) {
	compressed := c.cfg.CompressedWriteback && cf > 1 && c.rangeFits(content, cf)
	bytes := uint64(cf) * c.geom.subBytes
	if compressed {
		bytes = c.geom.subBytes
		switch cf {
		case 2:
			c.cf2Hint[b] |= 1 << (subOff / 2)
		case 4:
			c.cf4Hint[b] |= 1 << (subOff / 4)
		}
		c.ctr.compressedWritebacks.Inc()
	}
	wbDone := c.eng.WriteSlowBG(now, c.slowAddr(b, subOff), bytes)
	c.ctr.latWriteback.Observe(wbDone - now)
	if t := c.eng.Tracer(); t != nil {
		t.Span("writeback", "", now, wbDone)
	}
}

// chooseRange picks the maximal contiguous aligned range containing sub s of
// block b that (a) does not overlap sub-blocks already staged for b and
// (b) compresses into one sub-block slot. It returns (start, cf).
func (c *Controller) chooseRange(ssi int, super hybrid.SuperBlockID, blkOff int, b uint64, s int) (int, int) {
	if c.cfg.CompressionOff {
		return s, 1
	}
	present := func(sub int) bool {
		w, slot := c.stageFind(ssi, super, blkOff, sub)
		return w >= 0 && slot >= 0
	}
	for _, cf := range []int{4, 2} {
		start := s &^ (cf - 1)
		ok := true
		for i := start; i < start+cf; i++ {
			if i != s && present(i) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// A matching CF hint means the data already sits compressed and
		// grouped in slow memory; no trial is needed (Section III-F).
		hinted := (cf == 2 && c.cf2Hint[b]&(1<<(start/2)) != 0) ||
			(cf == 4 && c.cf4Hint[b]&(1<<(start/4)) != 0)
		if hinted {
			return start, cf
		}
		content := c.rangeContentScratch(b, start, cf)
		if c.rangeFits(content, cf) {
			return start, cf
		}
	}
	return s, 1
}

// rangeContent copies the canonical content of cf sub-blocks starting at
// subOff of block b. The returned buffer is owned by the caller and may be
// kept (range buffers move between frames and must own their storage); it
// comes from the controller's per-CF free list when one is available.
func (c *Controller) rangeContent(b uint64, subOff, cf int) []byte {
	return c.fillRange(c.newRangeBuf(cf), b, subOff, cf)
}

// newRangeBuf returns an owned buffer of cf sub-blocks, recycling a freed
// one when possible. Buffers are pooled by exact length (cf in {1,2,4}), so
// flat mode's many CF-1 resident buffers never bloat to 4*subBytes. Pool
// misses carve from a per-CF slab, so growing the resident set costs one
// allocation per rangeSlabBufs buffers rather than one per buffer.
func (c *Controller) newRangeBuf(cf int) []byte {
	pool := &c.rangePool[cf]
	if n := len(*pool); n > 0 {
		buf := (*pool)[n-1]
		(*pool)[n-1] = nil
		*pool = (*pool)[:n-1]
		return buf
	}
	size := uint64(cf) * c.geom.subBytes
	slab := &c.rangeSlab[cf]
	if uint64(len(*slab)) < size {
		*slab = make([]byte, rangeSlabBufs*size)
	}
	buf := (*slab)[:size:size]
	*slab = (*slab)[size:]
	return buf
}

// rangeSlabBufs is the number of range buffers carved from one slab chunk.
const rangeSlabBufs = 64

// freeRangeBuf returns a dead range buffer to its CF class's free list. The
// buffer may still back the previous Access's Result.Data — reuse only
// happens through a later rangeContent call, which the hybrid.Result
// lifetime contract permits.
func (c *Controller) freeRangeBuf(buf []byte) {
	if buf == nil {
		return
	}
	cf := uint64(len(buf)) / c.geom.subBytes
	c.rangePool[cf] = append(c.rangePool[cf], buf)
}

// rangeContentScratch assembles the same bytes into the controller's trial
// scratch. Only fit trials may use it — the buffer is recycled on the next
// trial, so it must never be installed in a frame.
func (c *Controller) rangeContentScratch(b uint64, subOff, cf int) []byte {
	if c.trialScratch == nil {
		c.trialScratch = make([]byte, 4*c.geom.subBytes)
	}
	return c.fillRange(c.trialScratch[:uint64(cf)*c.geom.subBytes], b, subOff, cf)
}

func (c *Controller) fillRange(out []byte, b uint64, subOff, cf int) []byte {
	for i := 0; i < cf; i++ {
		copy(out[uint64(i)*c.geom.subBytes:], c.slowSub(b, subOff+i))
	}
	return out
}

// blockAllZero reports whether block b's full canonical content is zero.
func (c *Controller) blockAllZero(b uint64) bool {
	for s := 0; s < 8; s++ {
		if !c.comp.IsZero(c.slowSub(b, s)) {
			return false
		}
	}
	return true
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

	// Z-bit: an all-zero block is staged as a single descriptor with no
	// data movement at all.
	if c.cfg.ZeroBlockOpt && !dirty && !fr.tag.HasBlock(blkOff) && c.blockAllZero(b) {
		slot := fr.tag.FreeSlot()
		if slot < 0 {
			slot = c.stageFullSlot(now, ssi, &sw, b)
			if slot < 0 {
				return
			}
			fr = c.stageDir.Payload(ssi, sw)
		}
		fr.tag.Slots[slot] = metadata.Range{Valid: true, CF: 4, Zero: true, BlkOff: uint8(blkOff)}
		fr.data[slot] = nil
		return
	}

	start, cf := c.chooseRange(ssi, super, blkOff, b, s)
	content := c.rangeContent(b, start, cf)

	slot := fr.tag.FreeSlot()
	if slot < 0 {
		slot = c.stageFullSlot(now, ssi, &sw, b)
		if slot < 0 {
			return
		}
		fr = c.stageDir.Payload(ssi, sw)
	}

	fr.tag.Slots[slot] = metadata.Range{
		Valid: true, CF: uint8(cf), Dirty: dirty,
		BlkOff: uint8(blkOff), SubOff: uint8(start),
	}
	fr.data[slot] = content
	c.ctr.rangeFetches.Inc()
	c.ctr.rangeCFSum.Add(uint64(cf))

	// Traffic: the range is fetched from slow memory (one compressed
	// sub-block when a CF hint applies, the raw range otherwise) and written
	// into the stage region of fast memory.
	fetch := uint64(cf) * c.geom.subBytes
	if c.cfg.CompressedWriteback &&
		((cf == 2 && c.cf2Hint[b]&(1<<(start/2)) != 0) || (cf == 4 && c.cf4Hint[b]&(1<<(start/4)) != 0)) {
		fetch = c.geom.subBytes
	}
	if fetch > 64 {
		c.eng.FetchSlow(now, c.slowAddr(b, start), fetch-64) // demanded line already charged
	}
	c.eng.FillFast(now, c.stageFrameAddr(ssi, sw, slot), c.geom.subBytes)
}

// stageFullSlot resolves a full target frame with the two-level policy of
// Fig. 8: if the frame is the set's block-level victim, do a sub-block
// (SlotFIFO) replacement inside it; otherwise evict the victim way at block
// level (through the selective commit policy), re-tag it for this
// super-block, move block b's existing ranges into it (Rule 3), and return
// a free slot there. sw is updated to the frame finally holding the block.
// Returns -1 when the single-way corner case cannot free a slot.
func (c *Controller) stageFullSlot(now uint64, ssi int, sw *int, b uint64) int {
	lru := c.stageDir.Victim(ssi, c.stageRep)

	if !c.cfg.TwoLevelReplacement || lru == *sw || c.geom.stageWays == 1 {
		// Sub-block-level replacement within the current frame.
		return c.stageVictimSlot(now, ssi, *sw)
	}

	// Block-level replacement: the victim way is committed or evicted, then
	// reused for this super-block.
	c.ctr.blockReplacements.Inc()
	c.finishStageFrame(now, ssi, lru)

	super := c.superOf(b)
	blkOff := c.blkOff(b)
	oldW := *sw
	old := c.stageDir.Payload(ssi, oldW)
	nm, nw := c.stageDir.Way(ssi, lru)
	nw.tag = metadata.StageTag{Valid: true, Super: super}
	nw.data = [8][]byte{}
	*nm = hybrid.WayMeta{Key: uint64(super), Valid: true, LastUse: c.seq, AllocSeq: c.seq}
	nw.events = nw.events[:0]
	nw.accesses = 0
	nw.instStart = c.instructionsSeen

	// Move b's ranges to the new frame to keep Rule 3 (the move also gives
	// re-grouping a chance to reduce fragmentation, as the paper notes).
	// Slots are scanned in ascending order, so b's ranges keep their
	// relative order in the new frame.
	slot := 0
	for oldSlot := range old.tag.Slots {
		if r := old.tag.Slots[oldSlot]; !r.Valid || int(r.BlkOff) != blkOff {
			continue
		}
		nw.tag.Slots[slot] = old.tag.Slots[oldSlot]
		nw.data[slot] = old.data[oldSlot]
		old.data[oldSlot] = nil // ownership moved; removeStageSlot must not recycle
		c.removeStageSlot(old, oldSlot)
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

// stageAllocate performs a block-level replacement to obtain a fresh frame
// for super (case 5 with no frame holding the super-block). It returns the
// way index, or -1 if allocation failed.
func (c *Controller) stageAllocate(now uint64, ssi int, super hybrid.SuperBlockID) int {
	w := c.stageDir.Victim(ssi, c.stageRep)
	m, fr := c.stageDir.Way(ssi, w)
	if fr.tag.Valid {
		c.ctr.blockReplacements.Inc()
		c.finishStageFrame(now, ssi, w)
	}
	fr.tag = metadata.StageTag{Valid: true, Super: super}
	fr.data = [8][]byte{}
	*m = hybrid.WayMeta{Key: uint64(super), Valid: true, LastUse: c.seq, AllocSeq: c.seq}
	fr.events = fr.events[:0]
	fr.accesses = 0
	fr.instStart = c.instructionsSeen
	return w
}
