package metadata

import "math/bits"

// RemapEntry is the compact per-block remap table entry (Fig. 5(b)). It
// packs to exactly 2 bytes for a 4-way design:
//
//	Remap[8]  which sub-blocks are cached/migrated to fast memory
//	Pointer   the physical block (way) holding them (Rule 3)
//	CF2[2]    which aligned half-ranges are compressed at CF=2
//	CF4[1]... see below
//	Z         all-zero block
//
// The hardware format gives CF2 four bits (one per aligned pair) and CF4 two
// bits (one per aligned quad), with the all-ones combination of CF2+CF4
// encoding Z; 8+2+4+2 = 16 bits. This struct keeps the fields explicit; the
// package's tests hold the bit-exact Encode/DecodeRemapEntry layout.
type RemapEntry struct {
	Remap   uint8 // bit i: sub-block i is in fast memory
	Pointer uint8 // way within the set (2 bits at assoc 4)
	CF2     uint8 // bit j: sub-blocks {2j, 2j+1} form one CF=2 range
	CF4     uint8 // bit j: sub-blocks {4j..4j+3} form one CF=4 range
	Z       bool  // whole block is zero; no data stored anywhere
}

// RemapEntryBytes is the per-entry budget from Section III-B.
const RemapEntryBytes = 2

// Valid reports whether any sub-block of the entry is remapped (or Z).
func (e RemapEntry) Valid() bool { return e.Remap != 0 || e.Z }

// SlotsUsed returns how many physical sub-block slots this block occupies in
// its fast physical block: valid remap bits, minus one per CF2 range, minus
// three per CF4 range (the paper's prefix-sum formula in Section III-C).
func (e RemapEntry) SlotsUsed() int {
	if e.Z {
		return 0
	}
	return bits.OnesCount8(e.Remap) - bits.OnesCount8(e.CF2&0xF) - 3*bits.OnesCount8(e.CF4&0x3)
}

// RangeOf returns the (start, cf) of the range containing sub-block sub, as
// implied by the CF2/CF4 bits. The caller must check the Remap bit first.
func (e RemapEntry) RangeOf(sub int) (start, cf int) {
	if e.CF4&(1<<(sub/4)) != 0 {
		return sub &^ 3, 4
	}
	if e.CF2&(1<<(sub/2)) != 0 {
		return sub &^ 1, 2
	}
	return sub, 1
}

// SlotOffsetWithin returns how many slots the ranges of this entry occupy
// before sub-block sub (for the sorted, dense committed layout of Rule 4).
func (e RemapEntry) SlotOffsetWithin(sub int) int {
	n := 0
	for s := 0; s < sub; {
		if e.Remap&(1<<s) == 0 {
			s++
			continue
		}
		start, cf := e.RangeOf(s)
		if start < s { // shouldn't happen with aligned ranges, be safe
			s++
			continue
		}
		n++
		s = start + cf
	}
	return n
}

// SuperEntries is the remap-cache line unit: the eight entries of one
// super-block, read together for the position calculation.
type SuperEntries [8]RemapEntry

// SlotPosition computes where sub-block sub of block blkOff lives inside the
// physical block both share: the number of slots used by earlier blocks of
// the super-block with the same Pointer, plus the slot offset within the
// block's own sorted ranges (the prefix-sum decode of Section III-C).
func (se *SuperEntries) SlotPosition(blkOff, sub int) int {
	ptr := se[blkOff].Pointer
	pos := 0
	for b := 0; b < blkOff; b++ {
		if se[b].Valid() && !se[b].Z && se[b].Pointer == ptr {
			pos += se[b].SlotsUsed()
		}
	}
	return pos + se[blkOff].SlotOffsetWithin(sub)
}
