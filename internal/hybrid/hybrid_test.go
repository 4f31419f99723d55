package hybrid

import (
	"bytes"
	"testing"
	"testing/quick"

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
	})
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

// TestStoreLazyFillMatchesEager drives a seeded random mix of line writes
// and reads through every view, and checks each read against an eager
// reference that fills a block on its first touch and copies writes in.
func TestStoreLazyFillMatchesEager(t *testing.T) {
	fill := func(b BlockID, dst *[BlockSize]byte) {
		for i := range dst {
			dst[i] = byte(uint64(b)*31 + uint64(i)*7 + uint64(i)>>8)
		}
	}
	s := NewStore(fill)
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
		switch op := rng.Intn(10); {
		case op < 6:
			data := make([]byte, CachelineSize)
			for j := range data {
				data[j] = byte(rng.Uint64() >> 32)
			}
			s.WriteLine(addr, data)
			copy(refBlock(b)[off:], data)
			continue
		case op == 6:
			got, want = s.Line(addr), refBlock(b)[off:off+CachelineSize]
		case op == 7:
			sub := off &^ (SubBlockSize - 1)
			got, want = s.Bytes(addr&^(SubBlockSize-1), SubBlockSize), refBlock(b)[sub:sub+SubBlockSize]
		case op == 8:
			n := int(rng.Uint64n(BlockSize-off)) + 1
			got, want = s.Bytes(addr, n), refBlock(b)[off:off+uint64(n)]
		default:
			got, want = s.Block(b)[:], refBlock(b)[:]
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("op %d at %#x: lazy store diverged from the eager reference", i, addr)
		}
	}
}
