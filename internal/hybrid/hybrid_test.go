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
	// Version 1 of a line is 0xAB repeated, version 2 is 0xCD; version 0 is
	// the nil fill's zeros.
	s := NewStore(nil, func(b BlockID, line int, v uint32, dst *[CachelineSize]byte) {
		for i := range dst {
			dst[i] = [3]byte{0, 0xAB, 0xCD}[v]
		}
	})
	addr := uint64(5*BlockSize + 128)
	s.WriteVersion(addr, 1)
	if !bytes.Equal(s.Line(addr), bytes.Repeat([]byte{0xAB}, CachelineSize)) {
		t.Fatal("line write lost")
	}
	other := uint64(5*BlockSize + 2*SubBlockSize + CachelineSize)
	s.WriteVersion(other, 2)
	if !bytes.Equal(s.Line(other), bytes.Repeat([]byte{0xCD}, CachelineSize)) {
		t.Fatal("second line write lost")
	}
	// The line at sub 0 must be untouched by the sub-2 write.
	if !bytes.Equal(s.Line(addr), bytes.Repeat([]byte{0xAB}, CachelineSize)) {
		t.Fatal("unrelated write clobbered line")
	}
	s.WriteVersion(addr, 0)
	if !bytes.Equal(s.Line(addr), make([]byte, CachelineSize)) {
		t.Fatal("version 0 does not read as the fill")
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

// TestStoreLazyFillMatchesEager drives a seeded random mix of version
// writes and reads through every view, and checks each read against an
// eager reference that fills a block on its first touch and makes a
// version's line at once.
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
		switch op := rng.Intn(8); {
		case op < 4:
			v := uint32(rng.Uint64n(1 << 20))
			s.WriteVersion(addr, v)
			line(b, int(off/CachelineSize), v, (*[CachelineSize]byte)(refBlock(b)[off:]))
			continue
		case op == 4:
			got, want = s.Line(addr), refBlock(b)[off:off+CachelineSize]
		case op == 5:
			sub := off &^ (SubBlockSize - 1)
			got, want = s.Bytes(addr&^(SubBlockSize-1), SubBlockSize), refBlock(b)[sub:sub+SubBlockSize]
		case op == 6:
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
// and a block read keeps every written line, whether it was written before
// the block's fill or after.
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

	// A written line reads back as FillLine at its version.
	addr := uint64(7*BlockSize + 5*SubBlockSize + 3*CachelineSize)
	s.WriteVersion(addr, 9)
	if got := s.Line(addr); !bytes.Equal(got, want(addr, 9)) {
		t.Fatalf("written line reads %x, want FillLine at version 9 %x", got, want(addr, 9))
	}
	s.WriteVersion(addr, 10)
	if got := s.Line(addr); !bytes.Equal(got, want(addr, 10)) {
		t.Fatal("rewritten line does not read as its new version")
	}

	// Version 0 is the fill's own content.
	zero := uint64(9*BlockSize + 2*CachelineSize)
	s.WriteVersion(zero, 0)
	if got, fill := s.Line(zero), fillOf(9)[2*CachelineSize:3*CachelineSize]; !bytes.Equal(got, fill) {
		t.Fatalf("version 0 reads %x, want the fill's %x", got, fill)
	}

	// A block read keeps every written line: lines written before the fill
	// runs, lines written after it, and a line made and then rewritten.
	const b = 6 // ClassRandom: no two versions of a line agree
	base := uint64(b * BlockSize)
	s.WriteVersion(base+0*CachelineSize, 4)
	s.WriteVersion(base+1*CachelineSize, 6)
	s.WriteVersion(base+31*CachelineSize, 2)
	s.WriteVersion(base+30*CachelineSize, 5)
	s.WriteVersion(base+30*CachelineSize, 3) // a later version replaces an earlier one
	fills = 0
	if got := s.Line(base + 1*CachelineSize); !bytes.Equal(got, want(base+1*CachelineSize, 6)) { // the fill runs here
		t.Fatal("first read of a written line does not read as its version")
	}
	if fills != 1 {
		t.Fatalf("first read of a written block ran the fill %d times, want 1", fills)
	}
	if got := s.Bytes(base+SubBlockSize, SubBlockSize); !bytes.Equal(got, fillOf(b)[SubBlockSize:2*SubBlockSize]) {
		t.Fatal("unwritten sub-block does not read as the fill")
	}
	s.WriteVersion(base+2*CachelineSize, 5)
	s.WriteVersion(base+1*CachelineSize, 7) // rewrites a made line
	s.WriteVersion(base+29*CachelineSize, 8)
	blk := s.Bytes(base, BlockSize)
	fill := fillOf(b)
	for i := 0; i < BlockSize/CachelineSize; i++ {
		addr := base + uint64(i)*CachelineSize
		var w []byte
		switch i {
		case 0:
			w = want(addr, 4)
		case 1:
			w = want(addr, 7)
		case 2:
			w = want(addr, 5)
		case 29:
			w = want(addr, 8)
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

// TestStoreWritesMakeNoBytes writes versions to many distinct blocks, as a
// design that never reads content does, and checks that the store carves
// no block bytes until a read: a written block holds only its record.
func TestStoreWritesMakeNoBytes(t *testing.T) {
	fills, lines := 0, 0
	s := NewStore(func(b BlockID, dst *[BlockSize]byte) { fills++ }, func(b BlockID, line int, v uint32, dst *[CachelineSize]byte) { lines++ })
	const blocks = 3 * storeRecSlab // spans several record slabs
	for blk := uint64(0); blk < blocks; blk++ {
		for line := uint64(0); line < 3; line++ {
			s.WriteVersion(blk*BlockSize+line*7*CachelineSize, uint32(blk+line+1))
		}
	}
	if len(s.blocks) != blocks {
		t.Fatalf("store holds %d records, want %d", len(s.blocks), blocks)
	}
	if len(s.slabs) != 0 || s.carved != 0 || fills != 0 || lines != 0 {
		t.Fatalf("writes alone made %d slabs, carved %d blocks of bytes, ran the fill %d times and made %d lines", len(s.slabs), s.carved, fills, lines)
	}
	for b, blk := range s.blocks {
		if blk.data != 0 {
			t.Fatalf("written block %d holds bytes before any read", b)
		}
	}
	s.Line(5*BlockSize + 7*CachelineSize)
	if s.carved != 1 || fills != 1 || lines != 1 {
		t.Fatalf("one line read carved %d blocks, ran %d fills and made %d lines, want 1, 1, 1", s.carved, fills, lines)
	}
}
