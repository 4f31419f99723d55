package metadata

// The bit-exact hardware encodings of both metadata formats. The simulator
// keeps its metadata in structs; these encoders are the test oracle proving
// that every entry fits the Section III-B/C bit budgets (14-byte stage tags,
// 2-byte remap entries) and decodes back unchanged.

import (
	"fmt"

	"baryon/internal/hybrid"
)

// StageTagBytes is the per-entry storage budget from Section III-B.
const StageTagBytes = 14

// encodeSlot packs one Range into 8 bits:
//
//	1 D BBB SSS   CF=1 range at sub-offset SSS
//	01 D BBB SS   CF=2 range at sub-offset 2*SS
//	001 D BBB S   CF=4 range at sub-offset 4*S
//	00001 BBB     all-zero range of block BBB (Z-bit special encoding)
//	0000 0000     empty slot
func encodeSlot(r Range) byte {
	if !r.Valid {
		return 0
	}
	d := byte(0)
	if r.Dirty {
		d = 1
	}
	if r.Zero {
		return 0x08 | r.BlkOff&7 // 0001 1(D folded) BBB — Z ranges are clean by definition
	}
	switch r.CF {
	case 1:
		return 0x80 | d<<6 | (r.BlkOff&7)<<3 | r.SubOff&7
	case 2:
		return 0x40 | d<<5 | (r.BlkOff&7)<<2 | (r.SubOff/2)&3
	case 4:
		return 0x20 | d<<4 | (r.BlkOff&7)<<1 | (r.SubOff/4)&1
	}
	panic(fmt.Sprintf("metadata: bad CF %d", r.CF))
}

func decodeSlot(b byte) Range {
	switch {
	case b == 0:
		return Range{}
	case b&0x80 != 0:
		return Range{Valid: true, CF: 1, Dirty: b&0x40 != 0, BlkOff: b >> 3 & 7, SubOff: b & 7}
	case b&0x40 != 0:
		return Range{Valid: true, CF: 2, Dirty: b&0x20 != 0, BlkOff: b >> 2 & 7, SubOff: (b & 3) * 2}
	case b&0x20 != 0:
		return Range{Valid: true, CF: 4, Dirty: b&0x10 != 0, BlkOff: b >> 1 & 7, SubOff: (b & 1) * 4}
	default:
		return Range{Valid: true, CF: 4, Zero: true, BlkOff: b & 7}
	}
}

// Encode packs the entry into its 14-byte hardware format: 1 valid bit +
// 21-bit super tag + 3-bit LRU + 3-bit FIFO + 16-bit MissCnt + 8x8-bit
// slots = 108 bits, padded to 14 bytes.
func (t *StageTag) Encode() [StageTagBytes]byte {
	var out [StageTagBytes]byte
	v := uint32(0)
	if t.Valid {
		v = 1
	}
	head := v<<31 | uint32(t.Super&0x1FFFFF)<<10 | uint32(t.LRU&7)<<7 | uint32(t.FIFO&7)<<4
	out[0] = byte(head >> 24)
	out[1] = byte(head >> 16)
	out[2] = byte(head >> 8)
	out[3] = byte(head)
	out[4] = byte(t.MissCnt >> 8)
	out[5] = byte(t.MissCnt)
	for i, r := range t.Slots {
		out[6+i] = encodeSlot(r)
	}
	return out
}

// DecodeStageTag unpacks a 14-byte entry. The super tag is truncated to its
// 21-bit field, as in hardware (set index bits reconstruct the rest).
func DecodeStageTag(b [StageTagBytes]byte) StageTag {
	head := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	t := StageTag{
		Valid:   head>>31 != 0,
		Super:   hybrid.SuperBlockID(head >> 10 & 0x1FFFFF),
		LRU:     uint8(head >> 7 & 7),
		FIFO:    uint8(head >> 4 & 7),
		MissCnt: uint16(b[4])<<8 | uint16(b[5]),
	}
	for i := range t.Slots {
		t.Slots[i] = decodeSlot(b[6+i])
	}
	return t
}

// Encode packs the entry into its 2-byte hardware format.
func (e RemapEntry) Encode() [RemapEntryBytes]byte {
	if e.Z {
		// All-ones CF2+CF4 is otherwise impossible (a CF4 range covers the
		// sub-blocks a CF2 range would), so it encodes Z.
		return [2]byte{e.Remap, byte(e.Pointer&3)<<6 | 0xF<<2 | 0x3}
	}
	return [2]byte{e.Remap, byte(e.Pointer&3)<<6 | (e.CF2&0xF)<<2 | e.CF4&0x3}
}

// DecodeRemapEntry unpacks a 2-byte entry.
func DecodeRemapEntry(b [RemapEntryBytes]byte) RemapEntry {
	e := RemapEntry{
		Remap:   b[0],
		Pointer: uint32(b[1] >> 6 & 3),
		CF2:     b[1] >> 2 & 0xF,
		CF4:     b[1] & 0x3,
	}
	if e.CF2 == 0xF && e.CF4 == 0x3 {
		return RemapEntry{Remap: e.Remap, Pointer: e.Pointer, Z: true}
	}
	return e
}
