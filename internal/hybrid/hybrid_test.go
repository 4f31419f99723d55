package hybrid

import (
	"bytes"
	"testing"
	"testing/quick"

	"baryon/internal/datagen"
	"baryon/internal/sim"
)

func TestGeometryHelpers(t *testing.T) {
	addr := uint64(5*BlockSize + 3*SubBlockSize + 2*CachelineSize + 17)
	if BlockOf(addr) != 5 {
		t.Fatalf("BlockOf=%d", BlockOf(addr))
	}
	if LineAddr(addr) != 5*BlockSize+3*SubBlockSize+2*CachelineSize {
		t.Fatalf("LineAddr=%#x", LineAddr(addr))
	}
}

func TestGeometryRoundTripQuick(t *testing.T) {
	f := func(raw uint32) bool {
		addr := uint64(raw)
		base := LineAddr(addr)
		return base <= addr && addr < base+CachelineSize &&
			uint64(BlockOf(addr))*BlockSize <= base && base < uint64(BlockOf(addr)+1)*BlockSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreLazyFill(t *testing.T) {
	fills := 0
	s := NewStore(func(b BlockID, dst *[BlockSize]byte) {
		fills++
		for i := range dst {
			dst[i] = byte(b)
		}
	}, nil)
	if len(s.blocks) != 0 {
		t.Fatal("store not empty")
	}
	line := s.Line(3 * BlockSize)
	if line[0] != 3 {
		t.Fatalf("fill content wrong: %d", line[0])
	}
	s.Line(3*BlockSize + 512)
	if fills != 1 {
		t.Fatalf("block filled %d times", fills)
	}
	if len(s.blocks) != 1 {
		t.Fatalf("touched=%d", len(s.blocks))
	}
}

func TestStoreNilFillZero(t *testing.T) {
	s := NewStore(nil, nil)
	for _, b := range s.Line(999 * 64) {
		if b != 0 {
			t.Fatal("nil-fill store not zero")
		}
	}
}

func TestStoreWriteRead(t *testing.T) {
	s := NewStore(nil, nil)
	data := bytes.Repeat([]byte{0xAB}, 64)
	s.WriteLine(5*BlockSize+128, data)
	if !bytes.Equal(s.Line(5*BlockSize+128), data) {
		t.Fatal("line write lost")
	}
	sub := bytes.Repeat([]byte{0xCD}, SubBlockSize)
	copy(s.Bytes(5*BlockSize+2*SubBlockSize, SubBlockSize), sub)
	if !bytes.Equal(s.Bytes(5*BlockSize+2*SubBlockSize, SubBlockSize), sub) {
		t.Fatal("sub write lost")
	}
	// The line write at sub 0 must be untouched by the sub-2 write.
	if !bytes.Equal(s.Line(5*BlockSize+128), data) {
		t.Fatal("unrelated write clobbered line")
	}
}

func TestStoreBytesWithinBlock(t *testing.T) {
	s := NewStore(nil, nil)
	if got := s.Bytes(BlockSize+100, 200); len(got) != 200 {
		t.Fatalf("Bytes len=%d", len(got))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-block Bytes did not panic")
		}
	}()
	s.Bytes(BlockSize-10, 20)
}

// TestStoreLazyFillMatchesEager drives a seeded random mix of byte writes,
// version writes and reads through every view, and checks each read
// against an eager reference that fills a block on its first touch and
// copies writes in, making a version's line at once.
func TestStoreLazyFillMatchesEager(t *testing.T) {
	fill := func(b BlockID, dst *[BlockSize]byte) {
		for i := range dst {
			dst[i] = byte(uint64(b)*31 + uint64(i)*7 + uint64(i)>>8)
		}
	}
	line := func(b BlockID, i int, v uint32, dst *[CachelineSize]byte) {
		for j := range dst {
			dst[j] = byte(uint64(b)*13 + uint64(i)*5 + uint64(v)*3 + uint64(j))
		}
	}
	s := NewStore(fill, line)
	ref := map[BlockID]*[BlockSize]byte{}
	refBlock := func(b BlockID) *[BlockSize]byte {
		if blk, ok := ref[b]; ok {
			return blk
		}
		blk := new([BlockSize]byte)
		fill(b, blk)
		ref[b] = blk
		return blk
	}
	rng := sim.NewRNG(21)
	const blocks = 64
	for i := 0; i < 20000; i++ {
		addr := rng.Uint64n(blocks*BlockSize) &^ (CachelineSize - 1)
		b, off := BlockOf(addr), addr%BlockSize
		var got, want []byte
		switch op := rng.Intn(12); {
		case op < 4:
			data := make([]byte, CachelineSize)
			for j := range data {
				data[j] = byte(rng.Uint64() >> 32)
			}
			s.WriteLine(addr, data)
			copy(refBlock(b)[off:], data)
			continue
		case op < 8:
			v := uint32(rng.Uint64n(1 << 20))
			s.WriteVersion(addr, v)
			line(b, int(off/CachelineSize), v, (*[CachelineSize]byte)(refBlock(b)[off:]))
			continue
		case op == 8:
			got, want = s.Line(addr), refBlock(b)[off:off+CachelineSize]
		case op == 9:
			sub := off &^ (SubBlockSize - 1)
			got, want = s.Bytes(addr&^(SubBlockSize-1), SubBlockSize), refBlock(b)[sub:sub+SubBlockSize]
		case op == 10:
			n := int(rng.Uint64n(BlockSize-off)) + 1
			got, want = s.Bytes(addr, n), refBlock(b)[off:off+uint64(n)]
		default:
			got, want = s.Bytes(uint64(b)*BlockSize, BlockSize), refBlock(b)[:]
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("op %d at %#x: lazy store diverged from the eager reference", i, addr)
		}
	}
}

// TestStoreVersionWrites checks the simulator's write path on a store made
// as the runner makes it, over datagen: a version-written line reads back
// as datagen.FillLine at its version, version 0 is the fill's own content,
// reading one written line leaves its block unfilled, and a block read
// after mixed writes keeps every written line.
func TestStoreVersionWrites(t *testing.T) {
	mix := datagen.Mix{Weights: [5]float64{1, 1, 1, 1, 1}}
	blockFill := datagen.Filler(mix)
	fills := 0
	s := NewStore(func(b BlockID, dst *[BlockSize]byte) {
		fills++
		blockFill(uint64(b), dst)
	}, func(b BlockID, line int, v uint32, dst *[CachelineSize]byte) {
		datagen.FillLine(dst[:], uint64(b), line/LinesPerSub, line%LinesPerSub, v, mix.ClassFor(uint64(b)))
	})
	want := func(addr uint64, v uint32) []byte {
		b := addr / BlockSize
		dst := make([]byte, CachelineSize)
		datagen.FillLine(dst, b, int(addr%BlockSize/SubBlockSize), int(addr%SubBlockSize/CachelineSize), v, mix.ClassFor(b))
		return dst
	}
	fillOf := func(b uint64) *[BlockSize]byte {
		dst := new([BlockSize]byte)
		blockFill(b, dst)
		return dst
	}

	// A pending line reads back as FillLine at its version, without the fill.
	addr := uint64(7*BlockSize + 5*SubBlockSize + 3*CachelineSize)
	s.WriteVersion(addr, 9)
	if got := s.Line(addr); !bytes.Equal(got, want(addr, 9)) {
		t.Fatalf("pending line reads %x, want FillLine at version 9 %x", got, want(addr, 9))
	}
	s.WriteVersion(addr, 10)
	if got := s.Line(addr); !bytes.Equal(got, want(addr, 10)) {
		t.Fatal("rewritten line does not read as its new version")
	}
	if fills != 0 {
		t.Fatalf("reading a written line ran the fill %d times, want 0", fills)
	}

	// Version 0 is the fill's own content.
	zero := uint64(9*BlockSize + 2*CachelineSize)
	s.WriteVersion(zero, 0)
	if got, fill := s.Line(zero), fillOf(9)[2*CachelineSize:3*CachelineSize]; !bytes.Equal(got, fill) {
		t.Fatalf("version 0 reads %x, want the fill's %x", got, fill)
	}

	// A block read after mixed writes keeps every written line: pending
	// versions, made lines and bytes survive the fill that sets them aside.
	const b = 6 // ClassRandom: no two versions of a line agree
	base := uint64(b * BlockSize)
	payload := bytes.Repeat([]byte{0x5A}, CachelineSize)
	s.WriteVersion(base+0*CachelineSize, 4)
	s.WriteVersion(base+1*CachelineSize, 6)
	s.Line(base + 1*CachelineSize) // made before the fill
	s.WriteLine(base+2*CachelineSize, payload)
	s.WriteVersion(base+31*CachelineSize, 2)
	s.WriteLine(base+30*CachelineSize, payload)
	s.WriteVersion(base+30*CachelineSize, 3) // a version replaces bytes
	s.WriteVersion(base+29*CachelineSize, 8)
	s.WriteLine(base+29*CachelineSize, payload) // and bytes a version
	fills = 0
	got := s.Bytes(base+SubBlockSize, SubBlockSize) // the fill runs here
	if fills != 1 {
		t.Fatalf("first read of a written block ran the fill %d times, want 1", fills)
	}
	if !bytes.Equal(got, fillOf(b)[SubBlockSize:2*SubBlockSize]) {
		t.Fatal("unwritten sub-block does not read as the fill")
	}
	blk := s.Bytes(base, BlockSize)
	fill := fillOf(b)
	for i := 0; i < BlockSize/CachelineSize; i++ {
		addr := base + uint64(i)*CachelineSize
		var w []byte
		switch i {
		case 0:
			w = want(addr, 4)
		case 1:
			w = want(addr, 6)
		case 2, 29:
			w = payload
		case 30:
			w = want(addr, 3)
		case 31:
			w = want(addr, 2)
		default:
			w = fill[i*CachelineSize : (i+1)*CachelineSize]
		}
		if got := blk[i*CachelineSize : (i+1)*CachelineSize]; !bytes.Equal(got, w) {
			t.Fatalf("line %d of the block reads %x, want %x", i, got, w)
		}
	}
	if fills != 1 {
		t.Fatalf("block filled %d times, want 1", fills)
	}
}
