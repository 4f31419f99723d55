// Package metadata holds the formats of Baryon's dual-format metadata
// scheme (Section III-C) and their decode: the flexible 14-byte stage tag
// entries backing the on-chip stage tag array, and the compact 2-byte remap
// entries backing the off-chip remap table, with the prefix-sum decode of a
// committed range's slot. The on-chip remap cache in front of the table is
// a cache.Cache in the controller. The package's tests encode and decode
// both formats to their exact bit budgets, so the storage claims of the
// paper are verified rather than assumed.
package metadata

import "baryon/internal/hybrid"

// Range describes one contiguous, aligned range of sub-blocks stored in one
// physical sub-block slot of a stage-area block (Rule 2). A range covers CF
// sub-blocks starting at SubOff (SubOff aligned to CF) of block BlkOff
// within the entry's super-block.
type Range struct {
	Valid  bool
	CF     uint8 // 1, 2 or 4
	Dirty  bool
	Zero   bool  // whole range is zero (Z-bit); CF must be 4 when Zero
	BlkOff uint8 // block within super-block (0..7)
	SubOff uint8 // first sub-block of the range (aligned to CF)
}

// Covers reports whether the range includes sub-block sub of block blkOff.
func (r Range) Covers(blkOff, sub int) bool {
	return r.Valid && int(r.BlkOff) == blkOff &&
		sub >= int(r.SubOff) && sub < int(r.SubOff)+int(r.CF)
}

// StageTag is one stage tag array entry: the metadata of one 2 kB physical
// block in the stage area (Fig. 5(a)). It packs to exactly 14 bytes.
type StageTag struct {
	Valid   bool
	Super   hybrid.SuperBlockID // 21-bit tag at paper scale
	Slots   [hybrid.SubBlocks]Range
	LRU     uint8  // 3-bit in-set recency rank
	FIFO    uint8  // 3-bit next sub-block victim pointer
	MissCnt uint16 // selective-commit statistic (Section III-E)
}

// FindRange returns the slot index of the range covering (blkOff, sub), or
// -1 when the sub-block is not staged in this entry.
func (t *StageTag) FindRange(blkOff, sub int) int {
	for i, r := range t.Slots {
		if r.Covers(blkOff, sub) {
			return i
		}
	}
	return -1
}

// FreeSlot returns the index of an empty slot, or -1 when the block is full.
func (t *StageTag) FreeSlot() int {
	for i, r := range t.Slots {
		if !r.Valid {
			return i
		}
	}
	return -1
}

// HasBlock reports whether any slot holds a range of block blkOff.
func (t *StageTag) HasBlock(blkOff int) bool {
	for _, r := range t.Slots {
		if r.Valid && int(r.BlkOff) == blkOff {
			return true
		}
	}
	return false
}
