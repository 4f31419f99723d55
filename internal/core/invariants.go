package core

import "baryon/internal/hybrid"

// CheckInvariants validates the structural rules on demand (tests call this
// after access storms). The remap table is the committed area's only
// layout, so Rule 3 (one way per block) and Rule 4 (the sorted, dense
// layout) hold by construction; what can break is an entry itself:
//
//	well-formed: CF2 and CF4 bits sit only over remapped sub-blocks, never
//	        over the same sub-block, and a Z entry has no remap bits,
//	Rule 1: a remapped entry points at a valid way keyed by its own
//	        super-block,
//	capacity: the entries pointing at one way use at most 8 slots,
//	dirty:  dirty bits sit only on remapped sub-blocks and cover each
//	        range whole or not at all,
//	single residency: a block's staged ranges sit in one stage frame
//	        (Rule 3) and do not overlap, and no staged sub-block is also
//	        committed (remap bit or Z): each sub-block has one home, which
//	        is what lets the store be the only copy of content.
//
// It returns a description of the first violation, or "".
func (c *Controller) CheckInvariants() string {
	if msg := c.checkStageResidency(); msg != "" {
		return msg
	}
	for b := range c.remap {
		if msg := c.checkEntry(uint64(b)); msg != "" {
			return msg
		}
	}
	for si := 0; si < int(c.geom.sets); si++ {
		for w := 0; w < c.geom.ways; w++ {
			if c.frameSlots(si, w) > 8 {
				return "frame holds more than 8 slots"
			}
		}
	}
	return ""
}

// checkEntry checks block b's remap entry and dirty bits.
func (c *Controller) checkEntry(b uint64) string {
	e := c.remap[b]
	for j := 0; j < 8; j++ {
		if e.CF2&(1<<j) != 0 && (j >= 4 || e.Remap>>(2*j)&0x3 != 0x3) {
			return "CF2 bit over sub-blocks that are not remapped"
		}
		if e.CF4&(1<<j) != 0 && (j >= 2 || e.Remap>>(4*j)&0xF != 0xF) {
			return "CF4 bit over sub-blocks that are not remapped"
		}
	}
	for q := 0; q < 2; q++ {
		if e.CF4&(1<<q) != 0 && e.CF2>>(2*q)&0x3 != 0 {
			return "sub-block under both a CF2 and a CF4 bit"
		}
	}
	if e.Z && e.Remap != 0 {
		return "Z entry with remap bits"
	}
	if e.Remap != 0 {
		super := c.superOf(b)
		if e.Pointer >= uint32(c.geom.ways) {
			return "remap entry points past the set's ways (Rule 1)"
		}
		if m := c.fastDir.SetMeta(c.setIdx(super))[e.Pointer]; !m.Valid || hybrid.SuperBlockID(m.Key) != super {
			return "remap entry points at a frame of another super-block (Rule 1)"
		}
	}
	if c.dirty[b]&^e.Remap != 0 {
		return "dirty bit on a sub-block that is not remapped"
	}
	for start, cf := e.NextRange(0); cf > 0; start, cf = e.NextRange(start + cf) {
		if d, m := c.dirty[b]>>start, uint8(1<<cf-1); d&m != 0 && d&m != m {
			return "dirty bits cover part of a range"
		}
	}
	return ""
}

// checkStageResidency checks the single-residency half of CheckInvariants
// over every valid stage slot.
func (c *Controller) checkStageResidency() string {
	for ssi := 0; ssi < int(c.geom.stageSets); ssi++ {
		for w := 0; w < c.geom.stageWays; w++ {
			fr := c.stageDir.Payload(ssi, w)
			if !fr.tag.Valid {
				continue
			}
			for i, rg := range fr.tag.Slots {
				if !rg.Valid {
					continue
				}
				for ow := 0; ow < c.geom.stageWays; ow++ {
					o := c.stageDir.Payload(ssi, ow)
					if ow != w && o.tag.Valid && o.tag.Super == fr.tag.Super && o.tag.HasBlock(int(rg.BlkOff)) {
						return "block staged in two stage frames (Rule 3)"
					}
				}
				e := c.remap[c.blockID(fr.tag.Super, rg.BlkOff)]
				for s := int(rg.SubOff); s < int(rg.SubOff+rg.CF); s++ {
					if e.Z || e.Remap&(1<<s) != 0 {
						return "sub-block both staged and committed"
					}
					for j := i + 1; j < len(fr.tag.Slots); j++ {
						if fr.tag.Slots[j].Covers(int(rg.BlkOff), s) {
							return "staged ranges overlap"
						}
					}
				}
			}
		}
	}
	return ""
}
