package compress

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// FPC implements Frequent Pattern Compression over 32-bit words. Each word is
// encoded with a 3-bit prefix selecting one of eight patterns; runs of zero
// words are folded into a single code with a 3-bit run length. This follows
// the original significance-based scheme of Alameldeen & Wood (2004), the
// configuration the paper adopts (Table I: 2 B/4 B/8 B segments).
type FPC struct{}

// FPC word patterns. The 3-bit prefix is the constant's value.
const (
	fpcZeroRun   = 0 // run of 1..8 zero words; 3-bit payload (run length - 1)
	fpcSign4     = 1 // 4-bit sign-extended
	fpcSign8     = 2 // 8-bit sign-extended
	fpcSign16    = 3 // 16-bit sign-extended
	fpcHalfZero  = 4 // lower halfword zero; 16-bit payload holds upper half
	fpcTwoBytes  = 5 // two halfwords, each a sign-extended byte
	fpcRepByte   = 6 // all four bytes identical
	fpcUncompr   = 7 // verbatim 32-bit word
	fpcPrefixLen = 3
)

// fpcNarrowPayload is the payload width of a word whose sign-folded value
// has n < 16 significant bits: the narrowest of the sign-extended 4-, 8- and
// 16-bit patterns that holds it.
var fpcNarrowPayload = [16]uint8{4, 4, 4, 4, 8, 8, 8, 8, 16, 16, 16, 16, 16, 16, 16, 16}

// fpcPayloadBits returns the payload bit count fpcClassify assigns to w
// without walking its pattern list: bits.Len32 of the sign-folded word
// settles the three sign-extended patterns, and only wider words test the
// half-zero, two-byte and repeated-byte patterns.
func fpcPayloadBits(w uint32) int {
	s := int32(w)
	if n := bits.Len32(uint32(s ^ s>>31)); n < 16 {
		return int(fpcNarrowPayload[n])
	}
	switch {
	case w&0xFFFF == 0, w&0xFF80FF80 == 0: // half-zero; two bytes in 0..127
		return 16
	case w == w&0xFF*0x01010101:
		return 8
	}
	return 32
}

// fpcBits returns the bit length of the FPC encoding of data, or any value
// above maxBits as soon as the running count exceeds it. A zero word opens
// a new zero-run code when it follows a non-zero word or completes a run of
// eight.
func fpcBits(data []byte, maxBits int) int {
	n, run := 0, 0
	for ; len(data) >= 4; data = data[4:] {
		w := binary.LittleEndian.Uint32(data)
		if w == 0 {
			if run == 0 {
				n += fpcPrefixLen + 3
			}
			run = (run + 1) & 7
			continue
		}
		run = 0
		n += fpcPrefixLen + fpcPayloadBits(w)
		if n > maxBits {
			return n
		}
	}
	return n
}

// CompressedSize returns the size in bytes of the FPC encoding of data.
// len(data) must be a multiple of 4. The result is at most len(data)+len/4
// rounded up (every word uncompressed plus prefixes), and the simulator
// clamps to the original size when compression does not pay off.
func (FPC) CompressedSize(data []byte) int {
	return (fpcBits(data, math.MaxInt) + 7) / 8
}

// SizeAtMost reports whether the FPC encoding of data fits in budget bytes,
// without materialising the bitstream and bailing out as soon as the running
// bit count exceeds the budget. Equivalent to CompressedSize(data) <= budget.
func (FPC) SizeAtMost(data []byte, budget int) bool {
	maxBits := budget * 8
	return fpcBits(data, maxBits) <= maxBits
}
