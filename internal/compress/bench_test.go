package compress

import (
	"fmt"
	"testing"

	"baryon/internal/sim"
)

func benchLines(class int) [][]byte {
	rng := sim.NewRNG(uint64(class) + 1)
	out := make([][]byte, 64)
	for i := range out {
		out[i] = randomLine(rng)
	}
	return out
}

func BenchmarkFPCCompressedSize(b *testing.B) {
	var fpc FPC
	lines := benchLines(0)
	b.SetBytes(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fpc.CompressedSize(lines[i%len(lines)])
	}
}

func BenchmarkFPCCompress(b *testing.B) {
	var fpc FPC
	lines := benchLines(1)
	b.SetBytes(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fpc.Compress(lines[i%len(lines)])
	}
}

func BenchmarkFPCAppendCompress(b *testing.B) {
	var fpc FPC
	lines := benchLines(1)
	var buf []byte
	b.SetBytes(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = fpc.AppendCompress(buf[:0], lines[i%len(lines)])
	}
}

func BenchmarkBDICompressedSize(b *testing.B) {
	var bdi BDI
	lines := benchLines(2)
	b.SetBytes(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bdi.CompressedSize(lines[i%len(lines)])
	}
}

func BenchmarkBDIRoundTrip(b *testing.B) {
	var bdi BDI
	lines := benchLines(3)
	b.SetBytes(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		line := lines[i%len(lines)]
		bdi.Decompress(bdi.Compress(line), 64)
	}
}

// BenchmarkBDIAppendRoundTrip is the scratch-buffer form of the round trip:
// steady state runs without any heap allocation.
func BenchmarkBDIAppendRoundTrip(b *testing.B) {
	var bdi BDI
	lines := benchLines(3)
	var comp, plain []byte
	b.SetBytes(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		line := lines[i%len(lines)]
		comp = bdi.AppendCompress(comp[:0], line)
		plain = bdi.AppendDecompress(plain[:0], comp, 64)
	}
}

// BenchmarkRangeFitsAligned times a CF-4 trial on random lines, which
// mostly fail on the first chunk; BenchmarkFitsWithin times the chunk
// trials on the content the controller sees.
func BenchmarkRangeFitsAligned(b *testing.B) {
	c := New(true)
	rng := sim.NewRNG(9)
	data := make([]byte, 1024)
	for off := 0; off < len(data); off += 64 {
		copy(data[off:], randomLine(rng))
	}
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.RangeFits(data, 4)
	}
}

// fitSink keeps the benchmarked predicate's result live.
var fitSink bool

// BenchmarkFitsWithin times the aligned-mode chunk trial on datagen
// content: a 256 B CF-4 chunk or a 128 B CF-2 chunk into one cacheline.
func BenchmarkFitsWithin(b *testing.B) {
	subs := datagenSubs(64)
	for _, n := range []int{256, 128} {
		b.Run(fmt.Sprintf("%d-64", n), func(b *testing.B) {
			c := New(true)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fitSink = c.FitsWithin(subs[i%len(subs)][:n], CachelineSize)
			}
		})
	}
}
