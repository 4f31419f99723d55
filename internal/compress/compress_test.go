package compress

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"baryon/internal/sim"
)

// randomLine synthesises a 64-byte line from one of several value classes so
// property tests exercise both compressible and incompressible paths.
func randomLine(rng *sim.RNG) []byte {
	line := make([]byte, 64)
	switch rng.Intn(5) {
	case 0: // zeros
	case 1: // small integers
		for off := 0; off < 64; off += 4 {
			binary.LittleEndian.PutUint32(line[off:], uint32(rng.Intn(256)))
		}
	case 2: // pointer-like: shared high bits
		base := rng.Uint64() &^ 0xFFFF
		for off := 0; off < 64; off += 8 {
			binary.LittleEndian.PutUint64(line[off:], base|uint64(rng.Intn(1<<16)))
		}
	case 3: // repeated value
		v := rng.Uint64()
		for off := 0; off < 64; off += 8 {
			binary.LittleEndian.PutUint64(line[off:], v)
		}
	default: // random
		for i := range line {
			line[i] = byte(rng.Uint64() >> 32)
		}
	}
	return line
}

func TestFPCRoundTrip(t *testing.T) {
	rng := sim.NewRNG(1)
	var fpc FPC
	for i := 0; i < 2000; i++ {
		n := (rng.Intn(64) + 1) * 4
		data := make([]byte, n)
		for off := 0; off < n; off += 64 {
			end := off + 64
			if end > n {
				end = n
			}
			copy(data[off:end], randomLine(rng))
		}
		comp := fpc.Compress(data)
		got := fpc.Decompress(comp, n)
		if !bytes.Equal(got, data) {
			t.Fatalf("iter %d: FPC round trip mismatch (n=%d)", i, n)
		}
		if want := fpc.CompressedSize(data); want != len(comp) {
			t.Fatalf("iter %d: CompressedSize=%d but stream is %d bytes", i, want, len(comp))
		}
	}
}

func TestBDIRoundTrip(t *testing.T) {
	rng := sim.NewRNG(2)
	var bdi BDI
	for i := 0; i < 2000; i++ {
		data := randomLine(rng)
		comp := bdi.Compress(data)
		got := bdi.Decompress(comp, len(data))
		if !bytes.Equal(got, data) {
			t.Fatalf("iter %d: BDI round trip mismatch\n in=%x\nout=%x", i, data, got)
		}
		if want := bdi.CompressedSize(data); want != len(comp) {
			t.Fatalf("iter %d: CompressedSize=%d but stream is %d bytes", i, want, len(comp))
		}
	}
}

func TestBDIRoundTripQuick(t *testing.T) {
	var bdi BDI
	f := func(raw [64]byte) bool {
		data := raw[:]
		return bytes.Equal(bdi.Decompress(bdi.Compress(data), 64), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFPCRoundTripQuick(t *testing.T) {
	var fpc FPC
	f := func(raw [64]byte) bool {
		data := raw[:]
		return bytes.Equal(fpc.Decompress(fpc.Compress(data), 64), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroLine(t *testing.T) {
	c := New(false)
	zero := make([]byte, 256)
	if !c.IsZero(zero) {
		t.Fatal("zero line not detected")
	}
	if sz := c.CompressedSize(zero); sz > 8 {
		t.Fatalf("zero 256B compresses to %d bytes, want tiny", sz)
	}
	zero[100] = 1
	if c.IsZero(zero) {
		t.Fatal("non-zero line detected as zero")
	}
}

func TestCompressedSizeNeverExpands(t *testing.T) {
	rng := sim.NewRNG(3)
	c := New(false)
	for i := 0; i < 500; i++ {
		data := make([]byte, 256)
		for off := 0; off < 256; off += 64 {
			copy(data[off:], randomLine(rng))
		}
		if sz := c.CompressedSize(data); sz > len(data) {
			t.Fatalf("compressed size %d > original %d", sz, len(data))
		}
	}
}

// subBlockSize is Baryon's 256 B sub-block (Section III-B).
const subBlockSize = 256

// The fit tests run at Baryon's 256 B sub-blocks and at Baryon-64B's 64 B
// ones: RangeFits derives the slot size from len(data)/cf.
var subBlockSizes = []int{subBlockSize, CachelineSize}

func TestRangeFitsCF1Always(t *testing.T) {
	c := New(true)
	rng := sim.NewRNG(5)
	for _, sub := range subBlockSizes {
		data := make([]byte, sub)
		for i := range data {
			data[i] = byte(rng.Uint64() >> 32)
		}
		if !c.RangeFits(data, 1) {
			t.Fatalf("%d B sub-block: CF=1 must always fit", sub)
		}
	}
}

func TestAlignedStricterThanUnaligned(t *testing.T) {
	// Cacheline-aligned compression is a strictly stronger requirement: a
	// range the aligned mode accepts must also fit whole, and the plain
	// mode accepts exactly the ranges whose best encoding fits one slot.
	aligned := New(true)
	plain := New(false)
	rng := sim.NewRNG(6)
	for _, sub := range subBlockSizes {
		acceptedAligned, acceptedPlain := 0, 0
		for i := 0; i < 300; i++ {
			data := make([]byte, 2*sub)
			for off := 0; off < len(data); off += 64 {
				copy(data[off:], randomLine(rng))
			}
			fits := plain.RangeFits(data, 2)
			if fits != (plain.CompressedSize(data) <= sub) {
				t.Fatalf("%d B sub-block: plain RangeFits=%v for a %d B encoding",
					sub, fits, plain.CompressedSize(data))
			}
			if aligned.RangeFits(data, 2) {
				acceptedAligned++
				if !fits {
					t.Fatalf("%d B sub-block: aligned-accepted range rejected by plain mode", sub)
				}
			}
			if fits {
				acceptedPlain++
			}
		}
		if acceptedAligned > acceptedPlain {
			t.Fatalf("%d B sub-block: aligned accepted %d > plain %d", sub, acceptedAligned, acceptedPlain)
		}
		if acceptedPlain == 0 || acceptedPlain == 300 {
			t.Fatalf("%d B sub-block: plain accepted %d of 300 ranges; test is vacuous", sub, acceptedPlain)
		}
	}
}

func TestFPCPatterns(t *testing.T) {
	var fpc FPC
	cases := []struct {
		word uint32
		bits uint
	}{
		{0x00000003, 4},          // 4-bit sign-extended
		{0xFFFFFFFF, 4},          // -1 fits 4 bits
		{0x0000007F, 8},          // 8-bit
		{0x00007FFF, 16},         // 16-bit
		{0xABCD0000, 16},         // halfword padded
		{0x007F00FF &^ 0x80, 16}, // two sign-extended bytes
		{0xAAAAAAAA, 8},          // repeated byte
		{0x12345678, 32},         // uncompressed
	}
	for _, tc := range cases {
		data := make([]byte, 4)
		binary.LittleEndian.PutUint32(data, tc.word)
		_, payload := fpcClassify(tc.word)
		if payload != tc.bits {
			t.Errorf("word %#x: payload %d bits, want %d", tc.word, payload, tc.bits)
		}
		comp := fpc.Compress(data)
		if got := fpc.Decompress(comp, 4); binary.LittleEndian.Uint32(got) != tc.word {
			t.Errorf("word %#x: round trip gave %#x", tc.word, binary.LittleEndian.Uint32(got))
		}
	}
}

func TestBDIKnownGood(t *testing.T) {
	var bdi BDI
	// 8 pointers sharing a 48-bit prefix: should compress well under B8D2.
	data := make([]byte, 64)
	base := uint64(0x00007FAB12340000)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(data[i*8:], base+uint64(i*16))
	}
	sz := bdi.CompressedSize(data)
	if sz > 32 {
		t.Fatalf("pointer line compressed to %d bytes, want <= 32", sz)
	}
	if !bytes.Equal(bdi.Decompress(bdi.Compress(data), 64), data) {
		t.Fatal("pointer line round trip failed")
	}
}

// TestAppendAPIsPreservePrefix checks the scratch-buffer contract of the
// Append* forms: the dst prefix is kept intact, the appended region equals
// the plain Compress/Decompress output, and recycled capacity with stale
// bytes does not leak into the result.
func TestAppendAPIsPreservePrefix(t *testing.T) {
	rng := sim.NewRNG(77)
	prefix := []byte{0xAA, 0xBB, 0xCC}
	stale := make([]byte, 0, 4096)
	for i := 0; i < cap(stale); i++ {
		stale = append(stale, 0xFF)
	}
	stale = stale[:0]

	type appender interface {
		Compress(data []byte) []byte
		Decompress(comp []byte, origLen int) []byte
		AppendCompress(dst, data []byte) []byte
		AppendDecompress(dst, comp []byte, origLen int) []byte
	}
	algos := []appender{FPC{}, BDI{}, CPack{}}
	for _, a := range algos {
		for trial := 0; trial < 200; trial++ {
			line := randomLine(rng)
			if trial%5 == 0 {
				for i := range line {
					line[i] = 0 // exercise the zero-run/all-zero decoders
				}
			}
			want := a.Compress(line)
			got := a.AppendCompress(append(stale[:0], prefix...), line)
			if !bytes.Equal(got[:len(prefix)], prefix) {
				t.Fatalf("AppendCompress clobbered the prefix")
			}
			if !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("AppendCompress stream differs from Compress")
			}
			wantPlain := a.Decompress(want, len(line))
			gotPlain := a.AppendDecompress(append(stale[:0], prefix...), want, len(line))
			if !bytes.Equal(gotPlain[:len(prefix)], prefix) {
				t.Fatalf("AppendDecompress clobbered the prefix")
			}
			if !bytes.Equal(gotPlain[len(prefix):], wantPlain) {
				t.Fatalf("AppendDecompress output differs from Decompress")
			}
			if !bytes.Equal(wantPlain, line) {
				t.Fatalf("round trip broken")
			}
		}
	}
}
