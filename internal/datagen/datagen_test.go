package datagen

import (
	"bytes"
	"testing"
	"testing/quick"

	"baryon/internal/compress"
)

func TestFillDeterministic(t *testing.T) {
	var a, b [256]byte
	FillSub(a[:], 7, 3, 2, ClassPointer)
	FillSub(b[:], 7, 3, 2, ClassPointer)
	if !bytes.Equal(a[:], b[:]) {
		t.Fatal("same inputs produced different data")
	}
	FillSub(b[:], 7, 3, 3, ClassPointer)
	if bytes.Equal(a[:], b[:]) {
		t.Fatal("version bump did not change data")
	}
}

func TestFillDeterministicQuick(t *testing.T) {
	f := func(block uint64, sub uint8, version uint16, cls uint8) bool {
		var a, b [256]byte
		c := Class(cls % uint8(numClasses))
		FillSub(a[:], block, int(sub%8), uint32(version), c)
		FillSub(b[:], block, int(sub%8), uint32(version), c)
		return bytes.Equal(a[:], b[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestClassCompressibilityOrdering verifies the value classes actually span
// the CF spectrum the paper's workloads need: zero-heavy data compresses
// best and random data not at all, with the structured classes in between.
func TestClassCompressibilityOrdering(t *testing.T) {
	comp := compress.New(false)
	meanCF := func(c Class) float64 {
		total := 0.0
		var buf [256]byte
		for b := uint64(0); b < 64; b++ {
			FillSub(buf[:], b, int(b%8), 0, c)
			total += comp.AchievedCF(buf[:])
		}
		return total / 64
	}
	zero := meanCF(ClassZero)
	smallInt := meanCF(ClassSmallInt)
	pointer := meanCF(ClassPointer)
	float := meanCF(ClassFloat)
	random := meanCF(ClassRandom)
	t.Logf("CFs: zero=%.2f smallInt=%.2f pointer=%.2f float=%.2f random=%.2f",
		zero, smallInt, pointer, float, random)
	if zero < 4 {
		t.Fatalf("zero class CF %.2f < 4", zero)
	}
	if smallInt < 2 {
		t.Fatalf("small-int class CF %.2f < 2", smallInt)
	}
	if pointer < 1.5 || float < 1.3 {
		t.Fatalf("structured classes too incompressible: ptr %.2f float %.2f", pointer, float)
	}
	if random > 1.1 {
		t.Fatalf("random class CF %.2f > 1.1", random)
	}
	if random >= pointer || pointer > zero {
		t.Fatal("class ordering violated")
	}
}

func TestMixClassDistribution(t *testing.T) {
	mix := Mix{Weights: [5]float64{0, 0, 1, 0, 0}}
	for b := uint64(0); b < 100; b++ {
		if c := mix.ClassFor(b); c != ClassPointer {
			t.Fatalf("single-weight mix gave class %d", c)
		}
	}
	uniform := UniformMix()
	counts := map[Class]int{}
	for b := uint64(0); b < 10000; b++ {
		counts[uniform.ClassFor(b)]++
	}
	for c := ClassZero; c < numClasses; c++ {
		if counts[c] < 1200 || counts[c] > 2800 {
			t.Fatalf("class %d count %d far from uniform", c, counts[c])
		}
	}
}

func TestZeroWeightMix(t *testing.T) {
	var empty Mix
	if c := empty.ClassFor(5); c != ClassRandom {
		t.Fatalf("zero-weight mix gave class %d, want ClassRandom", c)
	}
}

// TestVersionDegradation verifies that repeated writes eventually make some
// blocks less compressible — the source of write-overflow events.
func TestVersionDegradation(t *testing.T) {
	comp := compress.New(false)
	degraded := 0
	var buf [256]byte
	for b := uint64(0); b < 200; b++ {
		FillSub(buf[:], b, 0, 0, ClassZero)
		cf0 := comp.AchievedCF(buf[:])
		FillSub(buf[:], b, 0, 8, ClassZero)
		cf8 := comp.AchievedCF(buf[:])
		if cf8 < cf0/2 {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("no block ever degraded in compressibility after writes")
	}
	if degraded > 180 {
		t.Fatalf("almost all blocks degraded (%d/200); DegradeProb miscalibrated", degraded)
	}
}

func TestFillerCoversBlock(t *testing.T) {
	fill := Filler(Mix{Weights: [5]float64{0, 1, 0, 0, 0}})
	var blk [2048]byte
	fill(3, &blk)
	var sub [256]byte
	FillSub(sub[:], 3, 5, 0, ClassSmallInt)
	if !bytes.Equal(blk[5*256:6*256], sub[:]) {
		t.Fatal("Filler disagrees with FillSub")
	}
}

// TestFillLineIsSubBlockPrefix checks that FillLine, which generates only
// the sub-block prefix ending at its line, returns exactly the matching 64
// bytes of FillSub for every class, sub-block, line and version.
func TestFillLineIsSubBlockPrefix(t *testing.T) {
	var sub [256]byte
	line := make([]byte, 64)
	for c := ClassZero; c < numClasses; c++ {
		for block := uint64(0); block < 256; block++ {
			for version := uint32(0); version <= 12; version++ {
				for s := 0; s < 8; s++ {
					FillSub(sub[:], block, s, version, c)
					for l := 0; l < 4; l++ {
						FillLine(line, block, s, l, version, c)
						if !bytes.Equal(line, sub[l*64:(l+1)*64]) {
							t.Fatalf("class %d block %d sub %d line %d version %d: FillLine disagrees with FillSub",
								c, block, s, l, version)
						}
					}
				}
			}
		}
	}
}

// BenchmarkFillLine times one line's content over every class and line
// position (the runner generates one at each writeback of a written line).
func BenchmarkFillLine(b *testing.B) {
	line := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		FillLine(line, uint64(i), i%8, i%4, uint32(i%5), Class(i%int(numClasses)))
	}
}

func TestFillSubPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong destination size")
		}
	}()
	FillSub(make([]byte, 100), 0, 0, 0, ClassZero)
}
