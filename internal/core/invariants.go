package core

import (
	"baryon/internal/config"
	"baryon/internal/hybrid"
)

// CheckInvariants validates the structural rules on demand (tests call this
// after access storms):
//
//	Rule 1: every frame holds ranges of a single super-block (by
//	        construction of the types; checked via remap consistency),
//	Rule 3: all committed sub-blocks of a block live in one frame,
//	Rule 4: committed layouts are sorted by (blkOff, subOff),
//	plus: remap entries and frame occupancy agree, every flat-area frame
//	keeps the native block initFlatResidents homed at it, and
//	single residency: a block's staged ranges sit in one stage frame
//	(Rule 3) and do not overlap, and no staged sub-block is also
//	committed (remap bit or Z): each sub-block has one home, which is
//	what lets the store be the only copy of content.
//
// It returns a description of the first violation, or "".
func (c *Controller) CheckInvariants() string {
	if msg := c.checkStageResidency(); msg != "" {
		return msg
	}
	for si := 0; si < int(c.geom.sets); si++ {
		for wi := 0; wi < c.geom.ways; wi++ {
			m, f := c.fastDir.Way(si, wi)
			if home := uint64(si)*c.geom.superBlocks + uint64(wi); c.cfg.Mode == config.ModeFlat && home < c.geom.osBlocks && f.native != home {
				return "flat frame lost its native block"
			}
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
				ri := &c.remap[c.blockID(fr.tag.Super, rg.BlkOff)]
				for s := int(rg.SubOff); s < int(rg.SubOff+rg.CF); s++ {
					if ri.z || ri.remap&(1<<s) != 0 {
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
