// Package datagen synthesises deterministic memory contents with controlled
// compressibility. The paper's workloads carry real program data whose value
// locality drives FPC/BDI compression factors from ~1.0 (lbm) to ~2.4
// (fotonik3d); this package substitutes value classes — zero-heavy, small
// integers, pointer arrays, shared-exponent floats, incompressible — mixed
// per workload so the real compressors in internal/compress observe the same
// CF spectrum. Contents are a pure function of (block, sub-block, version,
// class): a write bumps a version, which both changes the bytes and, with a
// deterministic per-version probability, degrades compressibility — the
// source of the paper's write-overflow events (Fig. 3).
package datagen

import "encoding/binary"

// Class is a value-locality class for generated data.
type Class uint8

// The five value classes, from most to least compressible.
const (
	ClassZero     Class = iota // almost entirely zero words
	ClassSmallInt              // small 32-bit integers (FPC-friendly)
	ClassPointer               // 64-bit pointers with a shared base (BDI-friendly)
	ClassFloat                 // floats with shared exponents, moderate CF
	ClassRandom                // incompressible
	numClasses
)

// Mix is a distribution over value classes; weights need not be normalised.
type Mix struct {
	Weights [5]float64
}

// hash64 is a fixed avalanche hash (splitmix64 finaliser).
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ClassFor deterministically assigns block b a class drawn from the mix.
func (m Mix) ClassFor(block uint64) Class {
	total := 0.0
	for _, w := range m.Weights {
		total += w
	}
	if total == 0 {
		return ClassRandom
	}
	u := float64(hash64(block^0xC1A55)%1e9) / 1e9 * total
	acc := 0.0
	for i, w := range m.Weights {
		acc += w
		if u < acc {
			return Class(i)
		}
	}
	return ClassRandom
}

// DegradeProb is the per-write-version probability that a block's data
// becomes one class less compressible, producing write overflows.
const DegradeProb = 0.12

// effectiveClass applies version-driven degradation: each version step has a
// deterministic chance of pushing the class one step toward ClassRandom.
func effectiveClass(c Class, block uint64, version uint32) Class {
	for v := uint32(1); v <= version && c < ClassRandom; v++ {
		if hash64(block*2654435761+uint64(v))%1000 < uint64(DegradeProb*1000) {
			c++
		}
		if v > 8 { // degradation saturates; avoid O(version) cost
			break
		}
	}
	return c
}

// FillSub writes the 256-byte content of (block, sub) at the given version
// and base class into dst. len(dst) must be 256.
func FillSub(dst []byte, block uint64, sub int, version uint32, base Class) {
	if len(dst) != 256 {
		panic("datagen: FillSub needs a 256-byte destination")
	}
	fillPrefix(dst, block, sub, version, base)
}

// fillPrefix writes the first len(dst) bytes of FillSub's content into dst;
// len(dst) is a multiple of 64 up to 256. Every class draws its words from
// one sequential hash chain, so a prefix costs only the words it holds and
// equals the leading bytes of the whole sub-block.
func fillPrefix(dst []byte, block uint64, sub int, version uint32, base Class) {
	n := len(dst)
	c := effectiveClass(base, block, version)
	seed := hash64(block<<8 | uint64(sub)<<3 | uint64(version)<<32 | uint64(c))
	switch c {
	case ClassZero:
		for i := range dst {
			dst[i] = 0
		}
		// A sparse handful of small values so the data is not pure zero.
		if off := int(seed % 63 * 4); seed%4 == 0 && off < n {
			binary.LittleEndian.PutUint32(dst[off:], uint32(seed%100+1))
		}
	case ClassSmallInt:
		x := seed
		for off := 0; off < n; off += 4 {
			x = hash64(x)
			binary.LittleEndian.PutUint32(dst[off:], uint32(x%256))
		}
	case ClassPointer:
		// Pointers into one allocation arena: a shared 48-bit base with
		// cacheline-aligned offsets spanning 32 kB, so BDI's 8-byte-base /
		// 2-byte-delta configuration reaches CF about 2.4 (CF 2 after
		// quantisation, including on 128-byte aligned chunks).
		base := (seed &^ 0xFFFF) | 0x7F0000000000
		x := seed
		for off := 0; off < n; off += 8 {
			x = hash64(x)
			binary.LittleEndian.PutUint64(dst[off:], base|(x%(1<<9))*64)
		}
	case ClassFloat:
		// Truncated-mantissa floats (stencil grids, quantised NN weights):
		// the low mantissa half is zero, which FPC's padded-halfword
		// pattern captures at ~19 bits/word; sparse exact zeros bring the
		// chunk under CF 2 on 128-byte aligned chunks.
		x := seed
		for off := 0; off < n; off += 4 {
			x = hash64(x)
			if x%4 == 0 {
				binary.LittleEndian.PutUint32(dst[off:], 0)
				continue
			}
			binary.LittleEndian.PutUint32(dst[off:], (0x3F80+uint32(x%(1<<7)))<<16)
		}
	default: // ClassRandom
		x := seed
		for off := 0; off < n; off += 8 {
			x = hash64(x)
			binary.LittleEndian.PutUint64(dst[off:], x)
		}
	}
}

// Filler builds a block-fill function (for hybrid.Store) over a mix, with
// all blocks at version 0.
func Filler(mix Mix) func(block uint64, dst *[2048]byte) {
	return func(block uint64, dst *[2048]byte) {
		c := mix.ClassFor(block)
		for sub := 0; sub < 8; sub++ {
			FillSub(dst[sub*256:(sub+1)*256], block, sub, 0, c)
		}
	}
}

// FillLine writes the 64-byte line content for a write at the given version
// into dst (len(dst) must be at least 64): bytes line*64 to (line+1)*64 of
// FillSub's content, so written data stays consistent with the block's
// class. It generates only the sub-block prefix that ends at the line.
func FillLine(dst []byte, block uint64, sub, line int, version uint32, base Class) {
	var buf [256]byte
	end := (line + 1) * 64
	fillPrefix(buf[:end], block, sub, version, base)
	copy(dst, buf[line*64:end])
}
