package core

import "baryon/internal/hybrid"

// zeroLine is the content PeekLine reports for a zero-block line; callers
// treat it as read-only.
var zeroLine [hybrid.CachelineSize]byte

// PeekLine returns the current canonical content of the 64 B line at addr
// with no timing or statistics side effects. It walks the same priority
// order as the access flow (stage area, then committed fast memory, then
// slow memory), so integrity tests can compare the full data plane against a
// functional reference.
func (c *Controller) PeekLine(addr uint64) []byte {
	addr = hybrid.LineAddr(addr)
	b := c.blockOf(addr) % c.geom.osBlocks
	s := c.subOf(addr)
	line := int(addr % c.geom.subBytes / hybrid.CachelineSize)
	super := c.superOf(b)
	blkOff := c.blkOff(b)

	ssi := c.stageSetIdx(super)
	if w, slot := c.stageFind(ssi, super, blkOff, s); w >= 0 {
		fr := c.stageDir.Payload(ssi, w)
		rg := fr.tag.Slots[slot]
		if rg.Zero {
			return zeroLine[:]
		}
		lineInRange := (s-int(rg.SubOff))*c.geom.linesPerSub + line
		return fr.data[slot][lineInRange*64 : lineInRange*64+64]
	}

	ri := &c.remap[b]
	switch {
	case ri.z:
		return zeroLine[:]
	case ri.remap&(1<<s) != 0:
		si := c.setIdx(super)
		_, fr := c.fastDir.Way(si, int(ri.way))
		idx := findOcc(fr, uint8(blkOff), uint8(s))
		if idx < 0 {
			panic("core: PeekLine found remap bit without committed range")
		}
		rg := &fr.occ[idx]
		lineInRange := (s-int(rg.subOff))*c.geom.linesPerSub + line
		return rg.data[lineInRange*64 : lineInRange*64+64]
	}
	return c.store.Bytes(addr, 64)
}

// CheckInvariants validates the structural rules on demand (tests call this
// after access storms):
//
//	Rule 1: every frame holds ranges of a single super-block (by
//	        construction of the types; checked via remap consistency),
//	Rule 3: all committed sub-blocks of a block live in one frame,
//	Rule 4: committed layouts are sorted by (blkOff, subOff),
//	plus: remap entries and frame occupancy agree.
//
// It returns a description of the first violation, or "".
func (c *Controller) CheckInvariants() string {
	for si := 0; si < int(c.geom.sets); si++ {
		for wi := 0; wi < c.geom.ways; wi++ {
			m, f := c.fastDir.Way(si, wi)
			if !m.Valid {
				continue
			}
			if len(f.occ) > 8 {
				return "frame holds more than 8 slots"
			}
			for i := 1; i < len(f.occ); i++ {
				a, b := f.occ[i-1], f.occ[i]
				if a.blkOff > b.blkOff || (a.blkOff == b.blkOff && a.subOff >= b.subOff) {
					return "frame occupancy not sorted (Rule 4)"
				}
			}
			for i := range f.occ {
				rg := &f.occ[i]
				b := c.blockID(hybrid.SuperBlockID(m.Key), rg.blkOff)
				ri := &c.remap[b]
				if ri.way != int32(wi) {
					return "occupied range's remap entry points elsewhere (Rule 3)"
				}
				for s := rg.subOff; s < rg.subOff+rg.cf; s++ {
					if ri.remap&(1<<s) == 0 {
						return "occupied sub-block missing from remap bits"
					}
				}
			}
		}
	}
	// Every set remap bit must have a backing range.
	for b := range c.remap {
		ri := &c.remap[b]
		if ri.remap == 0 || ri.z {
			continue
		}
		super := c.superOf(uint64(b))
		m, f := c.fastDir.Way(c.setIdx(super), int(ri.way))
		if !m.Valid || hybrid.SuperBlockID(m.Key) != super {
			return "remap entry points at a frame of another super-block (Rule 1)"
		}
		for s := 0; s < 8; s++ {
			if ri.remap&(1<<s) != 0 && findOcc(f, uint8(c.blkOff(uint64(b))), uint8(s)) < 0 {
				return "remap bit set without a committed range"
			}
		}
	}
	return ""
}
