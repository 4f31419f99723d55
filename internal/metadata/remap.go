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
	// Pointer is the way index within the set. The hardware keeps its low
	// log2(assoc) bits (2 at assoc 4); the full index serves the
	// fully-associative variant, whose single set has thousands of ways.
	// It comes first so the struct packs into 8 bytes.
	Pointer uint32
	Remap   uint8 // bit i: sub-block i is in fast memory
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

// PointsAt reports whether the entry has ranges in way ptr. A Z entry has
// no remap bits and belongs to no way.
func (e RemapEntry) PointsAt(ptr uint32) bool { return e.Remap != 0 && e.Pointer == ptr }

// NextRange returns the first remapped range that starts at sub-block s or
// later, as (start, cf), or cf 0 when there is none. The loop
//
//	for start, cf := e.NextRange(0); cf > 0; start, cf = e.NextRange(start + cf)
//
// visits the entry's ranges in ascending sub-block order, which is the
// order of their slots in the sorted, dense committed layout of Rule 4.
func (e RemapEntry) NextRange(s int) (start, cf int) {
	for ; s < 8; s++ {
		if e.Remap&(1<<s) != 0 {
			return e.RangeOf(s)
		}
	}
	return 8, 0
}

// SlotsAt returns how many slots the entries pointing at way ptr fill: the
// sum of their SlotsUsed.
func SlotsAt(entries []RemapEntry, ptr uint32) int {
	n := 0
	for _, e := range entries {
		if e.PointsAt(ptr) {
			n += e.SlotsUsed()
		}
	}
	return n
}

// SlotPosition computes where sub-block sub of block blkOff lives inside the
// physical block its entry points at (the prefix-sum decode of Section
// III-C). entries are the remap entries of the block's super-block in block
// order, which may be fewer or more than eight (Fig. 13(b) sweeps 1- to
// 32-block super-blocks). The position is the slots used by earlier blocks
// with the same Pointer, plus the block's own ranges before the one holding
// sub.
func SlotPosition(entries []RemapEntry, blkOff, sub int) int {
	e := entries[blkOff]
	pos := SlotsAt(entries[:blkOff], e.Pointer)
	for start, cf := e.NextRange(0); cf > 0 && start+cf <= sub; start, cf = e.NextRange(start + cf) {
		pos++
	}
	return pos
}
