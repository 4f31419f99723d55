// Package compress implements the two hardware compression algorithms Baryon
// uses — FPC (Frequent Pattern Compression, Alameldeen & Wood) and BDI
// (Base-Delta-Immediate, Pekhimenko et al.) — plus the best-of-both selector,
// the quantised compression factors (CF in {1,2,4}) and the cacheline-aligned
// compression mode of Section III-E of the paper.
//
// The simulator only needs encoded sizes, so the package holds size
// estimators that never materialise a stream. The full encoders and decoders
// live in the package's tests: Compress produces a byte stream and
// Decompress reconstructs the original data exactly, which lets the test
// suite check every estimated size against a real encoding by property
// testing rather than trusting size formulas.
package compress

// The paper feeds to-be-compressed data into both FPC and BDI hardware
// modules and accepts whichever yields the higher compression factor
// (Section III-B). Compressor bundles that policy together with Baryon's CF
// quantisation and the cacheline-aligned restriction of Section III-E.

// CachelineSize is the 64 B cacheline of Baryon's data geometry (Section
// III-B), the unit of cacheline-aligned compression.
const CachelineSize = 64

// Compressor selects the best of its enabled algorithms per unit and
// applies Baryon's fit rules. The zero value is a plain (non-aligned)
// FPC+BDI compressor, the paper's default pairing.
type Compressor struct {
	// Aligned enforces cacheline-aligned compression: every 64·n-byte chunk
	// of a CF=n range must independently compress into 64 bytes, so a single
	// DDRx burst returns decodable data (Fig. 7).
	Aligned bool
	// WithCPack adds the C-Pack algorithm to the best-of selection (the
	// alternative scheme the paper cites; "the exact choices are orthogonal
	// to our design").
	WithCPack bool
	fpc       FPC
	bdi       BDI
	cpack     CPack
}

// New returns a compressor; aligned selects cacheline-aligned mode
// (Baryon's default).
func New(aligned bool) *Compressor { return &Compressor{Aligned: aligned} }

// CompressedSize returns the smallest enabled encoding of data, clamped to
// len(data) (hardware stores the original when compression loses).
func (c *Compressor) CompressedSize(data []byte) int {
	best := c.fpc.CompressedSize(data)
	if b := c.bdi.CompressedSize(data); b < best {
		best = b
	}
	if c.WithCPack {
		if p := c.cpack.CompressedSize(data); p < best {
			best = p
		}
	}
	if best > len(data) {
		best = len(data)
	}
	return best
}

// FitsWithin reports whether the best enabled encoding of data fits in
// budget bytes — exactly CompressedSize(data) <= budget, but without the
// full best-of search: each algorithm's size-only fast path bails out as
// soon as the budget is exceeded, and the first algorithm that fits ends
// the search. This is the predicate behind every fit trial (RangeFits,
// write-hit recompression, compressed writeback), where the exact size is
// irrelevant.
func (c *Compressor) FitsWithin(data []byte, budget int) bool {
	if budget >= len(data) {
		return true // hardware stores the original when compression loses
	}
	if c.fpc.SizeAtMost(data, budget) {
		return true
	}
	if c.bdi.SizeAtMost(data, budget) {
		return true
	}
	return c.WithCPack && c.cpack.SizeAtMost(data, budget)
}

// IsZero reports whether data is entirely zero (the Z-bit special case).
func (c *Compressor) IsZero(data []byte) bool { return allZero(data) }

// RangeFits reports whether a contiguous range of cf sub-blocks (data) can
// be stored in a single sub-block slot of len(data)/cf bytes at compression
// factor cf, so any sub-block size works (256 B for Baryon, 64 B for
// Baryon-64B). CF 1 always fits. In aligned mode each 64·cf-byte chunk must
// independently compress into one cacheline (Fig. 7).
func (c *Compressor) RangeFits(data []byte, cf int) bool {
	if cf == 1 {
		return true
	}
	if !c.Aligned {
		return c.FitsWithin(data, len(data)/cf)
	}
	chunk := CachelineSize * cf
	for off := 0; off < len(data); off += chunk {
		if !c.FitsWithin(data[off:off+chunk], CachelineSize) {
			return false
		}
	}
	return true
}
