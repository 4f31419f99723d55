package compress

import "encoding/binary"

// BDI implements Base-Delta-Immediate compression (Pekhimenko et al., PACT
// 2012). A line is carved into fixed-size chunks; each chunk is stored either
// as a small delta from one arbitrary base (the first chunk that is not an
// immediate) or as a delta from an implicit zero base, with a one-bit mask
// choosing between the two. The eight standard configurations plus the
// all-zero and repeated-value special cases are tried and the smallest wins.
//
// BDI is defined on 64-byte cachelines; this implementation accepts any
// length that is a multiple of 8 and applies the same configurations, which
// is what the cacheline-aligned mode of the paper needs (64·n-byte chunks).
type BDI struct{}

// bdiConfig is one base-size/delta-size combination.
type bdiConfig struct {
	id    byte
	base  int // bytes per chunk (and per base)
	delta int // bytes per stored delta
}

// The encoding ids below are also the stream header values.
const (
	bdiZeros = 0
	bdiRep8  = 1
	// base-delta configs start at 2; see bdiConfigs.
	bdiUncompressed = 0xFF
)

var bdiConfigs = []bdiConfig{
	{2, 8, 1}, {3, 8, 2}, {4, 8, 4},
	{5, 4, 1}, {6, 4, 2},
	{7, 2, 1},
}

func allZero(data []byte) bool {
	for _, b := range data {
		if b != 0 {
			return false
		}
	}
	return true
}

func isRep8(data []byte) bool {
	if len(data) < 16 || len(data)%8 != 0 {
		return false
	}
	first := binary.LittleEndian.Uint64(data)
	for off := 8; off < len(data); off += 8 {
		if binary.LittleEndian.Uint64(data[off:]) != first {
			return false
		}
	}
	return true
}

func chunkVal(data []byte, off, size int) uint64 {
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(data[off:])
	case 4:
		return uint64(binary.LittleEndian.Uint32(data[off:]))
	case 2:
		return uint64(binary.LittleEndian.Uint16(data[off:]))
	}
	panic("compress: bad BDI chunk size")
}

// deltaFits reports whether v-base fits in a signed delta of d bytes.
func deltaFits(v, base uint64, size, d int) bool {
	// Work in the chunk's width so wraparound matches hardware behaviour.
	var diff int64
	switch size {
	case 8:
		diff = int64(v - base)
	case 4:
		diff = int64(int32(uint32(v) - uint32(base)))
	case 2:
		diff = int64(int16(uint16(v) - uint16(base)))
	}
	min := -(int64(1) << (uint(d)*8 - 1))
	max := (int64(1) << (uint(d)*8 - 1)) - 1
	return diff >= min && diff <= max
}

// tryConfig returns (size in bytes, ok) for one configuration.
// Layout: header(1) + base(cfg.base) + mask(ceil(n/8)) + n*delta.
func tryConfig(data []byte, cfg bdiConfig) (int, bool) {
	if len(data)%cfg.base != 0 {
		return 0, false
	}
	n := len(data) / cfg.base
	var base uint64
	haveBase := false
	for off := 0; off < len(data); off += cfg.base {
		v := chunkVal(data, off, cfg.base)
		if deltaFits(v, 0, cfg.base, cfg.delta) {
			continue // immediate (zero-base) chunk
		}
		if !haveBase {
			base, haveBase = v, true
			continue
		}
		if !deltaFits(v, base, cfg.base, cfg.delta) {
			return 0, false
		}
	}
	size := 1 + cfg.base + (n+7)/8 + n*cfg.delta
	return size, true
}

// CompressedSize returns the byte size of the best BDI encoding of data,
// clamped to len(data)+1 (header) when nothing applies.
func (BDI) CompressedSize(data []byte) int {
	if allZero(data) {
		return 1
	}
	if isRep8(data) {
		return 1 + 8
	}
	best := 1 + len(data) // uncompressed, with header
	for _, cfg := range bdiConfigs {
		if sz, ok := tryConfig(data, cfg); ok && sz < best {
			best = sz
		}
	}
	return best
}

// SizeAtMost reports whether the best BDI encoding of data fits in budget
// bytes, equivalent to CompressedSize(data) <= budget but cheaper: a
// configuration's encoded size depends only on len(data), so configurations
// that cannot meet the budget are rejected arithmetically before any chunk
// scan, and the scan of the first feasible configuration that applies ends
// the search.
func (BDI) SizeAtMost(data []byte, budget int) bool {
	if allZero(data) {
		return 1 <= budget
	}
	if isRep8(data) {
		return 1+8 <= budget
	}
	if 1+len(data) <= budget {
		return true
	}
	for _, cfg := range bdiConfigs {
		if len(data)%cfg.base != 0 {
			continue
		}
		n := len(data) / cfg.base
		if 1+cfg.base+(n+7)/8+n*cfg.delta > budget {
			continue
		}
		if _, ok := tryConfig(data, cfg); ok {
			return true
		}
	}
	return false
}
