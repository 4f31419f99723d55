package hybrid

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestGeometryHelpers(t *testing.T) {
	addr := uint64(5*BlockSize + 3*SubBlockSize + 2*CachelineSize + 17)
	if BlockOf(addr) != 5 {
		t.Fatalf("BlockOf=%d", BlockOf(addr))
	}
	if SubOf(addr) != 3 {
		t.Fatalf("SubOf=%d", SubOf(addr))
	}
	if LineOf(addr) != 2 {
		t.Fatalf("LineOf=%d", LineOf(addr))
	}
	if LineAddr(addr)%CachelineSize != 0 {
		t.Fatal("LineAddr unaligned")
	}
	if SubAddr(5, 3) != 5*BlockSize+3*SubBlockSize {
		t.Fatal("SubAddr wrong")
	}
}

func TestGeometryRoundTripQuick(t *testing.T) {
	f := func(raw uint32) bool {
		addr := uint64(raw)
		b, s, l := BlockOf(addr), SubOf(addr), LineOf(addr)
		base := uint64(b)*BlockSize + uint64(s)*SubBlockSize + uint64(l)*CachelineSize
		return base <= addr && addr < base+CachelineSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSuperBlockGeometry(t *testing.T) {
	g := DefaultGeometry()
	if g.SuperOf(7) != 0 || g.SuperOf(8) != 1 {
		t.Fatal("SuperOf wrong")
	}
	if g.BlockOffset(13) != 5 {
		t.Fatalf("BlockOffset=%d", g.BlockOffset(13))
	}
	if g.BlockAt(1, 5) != 13 {
		t.Fatalf("BlockAt=%d", g.BlockAt(1, 5))
	}
	// Round trip: BlockAt(SuperOf(b), BlockOffset(b)) == b.
	for b := BlockID(0); b < 100; b++ {
		if g.BlockAt(g.SuperOf(b), g.BlockOffset(b)) != b {
			t.Fatalf("round trip failed for block %d", b)
		}
	}
}

func TestStoreLazyFill(t *testing.T) {
	fills := 0
	s := NewStore(func(b BlockID, dst *[BlockSize]byte) {
		fills++
		for i := range dst {
			dst[i] = byte(b)
		}
	})
	if s.Touched() != 0 {
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
	if s.Touched() != 1 {
		t.Fatalf("touched=%d", s.Touched())
	}
}

func TestStoreNilFillZero(t *testing.T) {
	s := NewStore(nil)
	for _, b := range s.Line(999 * 64) {
		if b != 0 {
			t.Fatal("nil-fill store not zero")
		}
	}
}

func TestStoreWriteRead(t *testing.T) {
	s := NewStore(nil)
	data := bytes.Repeat([]byte{0xAB}, 64)
	s.WriteLine(5*BlockSize+128, data)
	if !bytes.Equal(s.Line(5*BlockSize+128), data) {
		t.Fatal("line write lost")
	}
	sub := bytes.Repeat([]byte{0xCD}, SubBlockSize)
	copy(s.Sub(5, 2), sub)
	if !bytes.Equal(s.Sub(5, 2), sub) {
		t.Fatal("sub write lost")
	}
	// The line write at sub 0 must be untouched by the sub-2 write.
	if !bytes.Equal(s.Line(5*BlockSize+128), data) {
		t.Fatal("unrelated write clobbered line")
	}
}

func TestStoreBytesWithinBlock(t *testing.T) {
	s := NewStore(nil)
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
