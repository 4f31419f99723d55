package compress

import "encoding/binary"

// CPack implements the C-Pack cache compression algorithm (Chen et al.,
// IEEE TVLSI 2010), the main alternative the paper cites to FPC/BDI
// (reference [13]). C-Pack combines static patterns for zero and
// low-magnitude words with a small FIFO dictionary of recently seen words,
// matched fully or partially (upper 2 or 3 bytes).
//
// Pattern codes (per 32-bit word):
//
//	00            zzzz  all-zero word
//	01   + 32     xxxx  uncompressed word (pushed into the dictionary)
//	10   + 4      mmmm  full dictionary match (index)
//	1100 + 4+16   mmxx  dictionary match on the upper 2 bytes
//	1101 + 8      zzzx  only the low byte is non-zero
//	1110 + 4+8    mmmx  dictionary match on the upper 3 bytes
//
// Words encoded as xxxx, mmxx or mmmx are pushed into the 16-entry FIFO
// dictionary, mirroring the hardware's behaviour, so the decompressor can
// rebuild the dictionary in lockstep.
type CPack struct{}

const cpackDictSize = 16

type cpackDict struct {
	entries [cpackDictSize]uint32
	n       int // valid entries
	head    int // next FIFO slot
}

func (d *cpackDict) push(w uint32) {
	d.entries[d.head] = w
	d.head = (d.head + 1) % cpackDictSize
	if d.n < cpackDictSize {
		d.n++
	}
}

// match returns the best dictionary match for w: 2 = full, 1 = upper three
// bytes, 0 = upper two bytes, -1 = none, plus the index.
func (d *cpackDict) match(w uint32) (kind, idx int) {
	kind, idx = -1, 0
	for i := 0; i < d.n; i++ {
		e := d.entries[i]
		switch {
		case e == w:
			return 2, i
		case e&0xFFFFFF00 == w&0xFFFFFF00 && kind < 1:
			kind, idx = 1, i
		case e&0xFFFF0000 == w&0xFFFF0000 && kind < 0:
			kind, idx = 0, i
		}
	}
	return kind, idx
}

// wordBits returns the encoded size in bits of one word and updates dict.
func cpackWordBits(w uint32, d *cpackDict) int {
	switch {
	case w == 0:
		return 2
	case w&0xFFFFFF00 == 0:
		return 4 + 8 // zzzx
	}
	kind, _ := d.match(w)
	switch kind {
	case 2:
		return 2 + 4
	case 1:
		d.push(w)
		return 4 + 4 + 8
	case 0:
		d.push(w)
		return 4 + 4 + 16
	default:
		d.push(w)
		return 2 + 32
	}
}

// CompressedSize returns the C-Pack encoding size in bytes. len(data) must
// be a multiple of 4.
func (CPack) CompressedSize(data []byte) int {
	var d cpackDict
	bits := 0
	for off := 0; off+4 <= len(data); off += 4 {
		bits += cpackWordBits(binary.LittleEndian.Uint32(data[off:]), &d)
	}
	return (bits + 7) / 8
}

// SizeAtMost reports whether the C-Pack encoding of data fits in budget
// bytes, bailing out as soon as the running bit count exceeds the budget.
// Equivalent to CompressedSize(data) <= budget.
func (CPack) SizeAtMost(data []byte, budget int) bool {
	maxBits := budget * 8
	var d cpackDict
	bits := 0
	for off := 0; off+4 <= len(data); off += 4 {
		bits += cpackWordBits(binary.LittleEndian.Uint32(data[off:]), &d)
		if bits > maxBits {
			return false
		}
	}
	return true
}
