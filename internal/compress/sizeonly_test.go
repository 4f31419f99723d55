package compress

import (
	"testing"

	"baryon/internal/datagen"
)

// sizeAlgo is the algorithm surface the size-only fast paths must agree
// with: an exact encoder, an exact size, and the budget predicate.
type sizeAlgo struct {
	name       string
	compress   func([]byte) []byte
	size       func([]byte) int
	sizeAtMost func([]byte, int) bool
}

func sizeAlgos() []sizeAlgo {
	var fpc FPC
	var bdi BDI
	return []sizeAlgo{
		{"FPC", fpc.Compress, fpc.CompressedSize, fpc.SizeAtMost},
		{"BDI", bdi.Compress, bdi.CompressedSize, bdi.SizeAtMost},
	}
}

// sizeCorpus is the deterministic input corpus the size-only contracts are
// checked against: the fuzz targets' seed inputs plus a generated sweep of
// the value shapes the datagen mixes produce (zero runs, small deltas,
// repeated values, dictionary-friendly repeats, incompressible noise), at
// every length the simulator feeds the compressors (64 B cachelines up to
// 1 kB CF-4 ranges).
func sizeCorpus() [][]byte {
	var corpus [][]byte
	add := func(b []byte) { corpus = append(corpus, b) }

	// Fuzz seed inputs (word-aligned as fuzzInput would shape them).
	add(make([]byte, 64))
	add(repeatPattern([]byte{0xff, 0, 0, 0}, 64))
	add([]byte("the quick brown fox jumps over the dogs!"))
	add(repeatPattern([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 64))
	add(repeatPattern([]byte{0xde, 0xad, 0xbe, 0xef}, 64))

	rng := uint64(0x5eedc0de)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for _, n := range []int{8, 64, 128, 256, 512, 1024} {
		zero := make([]byte, n)
		add(zero)

		smallDelta := make([]byte, n)
		for i := 0; i < n; i += 8 {
			v := uint64(0x1000_0000) + uint64(i/8)
			put64(smallDelta[i:], v)
		}
		add(smallDelta)

		rep := make([]byte, n)
		for i := 0; i < n; i += 8 {
			put64(rep[i:], 0x0102030405060708)
		}
		add(rep)

		dict := make([]byte, n)
		for i := 0; i < n; i += 4 {
			// Few distinct words with shared upper bytes.
			w := uint32(0xCAFE0000) | uint32(i/4%3)
			dict[i], dict[i+1], dict[i+2], dict[i+3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
		}
		add(dict)

		noise := make([]byte, n)
		for i := 0; i < n; i += 8 {
			put64(noise[i:], next())
		}
		add(noise)

		mixed := make([]byte, n)
		for i := 0; i < n; i += 8 {
			if i/8%3 == 0 {
				put64(mixed[i:], next())
			} else {
				put64(mixed[i:], uint64(i))
			}
		}
		add(mixed)
	}
	return corpus
}

func put64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func repeatPattern(p []byte, n int) []byte {
	out := make([]byte, 0, n)
	for len(out) < n {
		out = append(out, p...)
	}
	return out[:n]
}

// TestCompressedSizeMatchesEncoding pins the size-only contract: for every
// algorithm and corpus input, CompressedSize(x) == len(Compress(x)). The
// fast paths never materialise an encoding, so this is the only thing tying
// the simulator's size arithmetic to the actual bitstreams.
func TestCompressedSizeMatchesEncoding(t *testing.T) {
	for _, a := range sizeAlgos() {
		t.Run(a.name, func(t *testing.T) {
			for i, data := range sizeCorpus() {
				if got, want := a.size(data), len(a.compress(data)); got != want {
					t.Fatalf("input %d (len %d): CompressedSize=%d but Compress produced %d bytes",
						i, len(data), got, want)
				}
			}
		})
	}
}

// datagenSubs returns n generated sub-blocks per value class, at fresh and
// written versions: the content the Baryon controller's fit trials see.
func datagenSubs(n int) [][]byte {
	var out [][]byte
	for class := datagen.ClassZero; class <= datagen.ClassRandom; class++ {
		for blk := uint64(0); blk < uint64(n); blk++ {
			sub := make([]byte, subBlockSize)
			datagen.FillSub(sub, blk, int(blk%8), uint32(blk%4), class)
			out = append(out, sub)
		}
	}
	return out
}

// datagenCorpus cuts generated sub-blocks into every length a fit trial
// passes the compressors: whole, and the 128 B and 64 B chunks of
// cacheline-aligned CF 2 and CF 4.
func datagenCorpus() [][]byte {
	var corpus [][]byte
	for _, sub := range datagenSubs(16) {
		corpus = append(corpus, sub, sub[:128], sub[128:], sub[64:128])
	}
	return corpus
}

// TestSizeAtMostAgreesWithCompressedSize checks the early-exit budget
// predicates against the exact sizes: on the structured corpus at every
// interesting budget (around the exact size, the cacheline and sub-block
// budgets, and degenerate ones), and on datagen content at every budget
// from 0 to the input length.
func TestSizeAtMostAgreesWithCompressedSize(t *testing.T) {
	for _, a := range sizeAlgos() {
		t.Run(a.name, func(t *testing.T) {
			check := func(i int, data []byte, budget int) {
				t.Helper()
				if got, want := a.sizeAtMost(data, budget), a.size(data) <= budget; got != want {
					t.Fatalf("input %d (len %d): SizeAtMost(%d)=%v but CompressedSize=%d",
						i, len(data), budget, got, a.size(data))
				}
			}
			for i, data := range sizeCorpus() {
				sz := a.size(data)
				for _, budget := range []int{0, 1, 16, sz - 1, sz, sz + 1, 64, 256, len(data), len(data) + 8} {
					if budget >= 0 {
						check(i, data, budget)
					}
				}
			}
			for i, data := range datagenCorpus() {
				for budget := 0; budget <= len(data); budget++ {
					check(i, data, budget)
				}
			}
		})
	}
}

// TestFPCPayloadBitsMatchesClassify pins the table-driven size kernel to the
// pattern classifier the encoder uses, over word sweeps that cross every
// pattern boundary: all 16-bit values, their negations and shifts, repeated
// bytes, and two-byte words.
func TestFPCPayloadBitsMatchesClassify(t *testing.T) {
	check := func(w uint32) {
		if w == 0 {
			return // zero words are run-coded, never classified
		}
		if _, want := fpcClassify(w); fpcPayloadBits(w) != int(want) {
			t.Fatalf("word %#08x: fpcPayloadBits=%d, fpcClassify payload=%d", w, fpcPayloadBits(w), want)
		}
	}
	for v := uint32(0); v <= 0xFFFF; v++ {
		for shift := 0; shift <= 16; shift++ {
			check(v << shift)
			check(-(v << shift))
		}
	}
	for hi := uint32(0); hi <= 0xFF; hi++ {
		check(hi * 0x01010101)
		for lo := uint32(0); lo <= 0xFF; lo++ {
			check(hi<<16 | lo)
			check(hi<<24 | lo<<8)
		}
	}
}

// TestFitsWithinAgreesWithCompressedSize checks the best-of predicate the
// fit trials use against the exact best-of size. The subtest covers the
// BDI+FPC pairing, the only one the Compressor has; its name is kept from
// when a C-Pack option could be switched on beside it.
func TestFitsWithinAgreesWithCompressedSize(t *testing.T) {
	t.Run("cpack=false", func(t *testing.T) {
		var c Compressor
		for i, data := range sizeCorpus() {
			sz := c.CompressedSize(data)
			for _, budget := range []int{1, 16, sz - 1, sz, sz + 1, 64, 256, len(data)} {
				if budget < 0 {
					continue
				}
				if got, want := c.FitsWithin(data, budget), sz <= budget; got != want {
					t.Fatalf("input %d (len %d): FitsWithin(%d)=%v but CompressedSize=%d",
						i, len(data), budget, got, sz)
				}
			}
		}
	})
}
