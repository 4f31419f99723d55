package hybrid

import (
	"encoding/binary"
	"math/bits"
)

// Store is the whole memory image: a lazily materialised map from block to
// its 2 kB content, and the only holder of content for every design. The
// writer stores a written line before it calls Access (see Controller);
// controllers record only where a line lives (fast or slow memory, stage
// or committed frame), keep no copy of it, and read content in place here
// for fit trials and writeback decisions. Content is made on demand from
// two deterministic functions supplied by the workload (see
// internal/datagen): a block's fill runs on the block's first read, and a
// line written as a version is made into bytes only when it is read. A block that is only ever written never pays for either.
type Store struct {
	blocks map[BlockID]*storeBlock
	fill   func(b BlockID, dst *[BlockSize]byte)
	line   func(b BlockID, line int, version uint32, dst *[CachelineSize]byte)
	// slab batches block materialisation: blocks are carved from 63-block
	// chunks instead of allocated one by one, cutting first-touch
	// allocations by the chunk factor on the access hot path.
	slab     *[storeSlabBlocks]storeBlock
	slabUsed int
	// scratch holds a block's written lines while its fill runs in place.
	scratch [BlockSize]byte
}

// storeBlock is one materialised block. Until filled, only the lines marked
// in written hold content; the fill supplies the rest on the first read. A
// line marked in pending was written as a version: its 64 B slot holds the
// 4-byte version, not yet the line's bytes.
type storeBlock struct {
	data    [BlockSize]byte
	written uint32 // one bit per 64 B line stored before the fill
	pending uint32 // the written lines that still hold a version
	filled  bool
}

// storeSlabBlocks is 63 so that a slab, masks included, fits the 128 kB
// that 64 bare blocks take; 64 masked blocks would spill into another 8 kB
// page and grow every slab by 6%.
const storeSlabBlocks = 63

// NewStore creates a store whose untouched blocks are produced by fill and
// whose version-written lines are produced by line: line(b, i, v, dst)
// writes line i of block b at write version v, and at version 0 it must
// equal the fill's bytes of that line. A nil fill yields all-zero blocks;
// line may be nil on a store whose writer writes only bytes (WriteLine).
func NewStore(fill func(b BlockID, dst *[BlockSize]byte), line func(b BlockID, line int, version uint32, dst *[CachelineSize]byte)) *Store {
	return &Store{blocks: make(map[BlockID]*storeBlock, 256), fill: fill, line: line}
}

// block returns block b, materialising it unfilled on first touch.
func (s *Store) block(b BlockID) *storeBlock {
	if blk, ok := s.blocks[b]; ok {
		return blk
	}
	if s.slab == nil || s.slabUsed == storeSlabBlocks {
		s.slab = new([storeSlabBlocks]storeBlock)
		s.slabUsed = 0
	}
	blk := &s.slab[s.slabUsed]
	s.slabUsed++
	s.blocks[b] = blk
	return blk
}

// fillBlock runs the fill over every line of blk not yet written. Written
// lines keep their slots, pending versions included.
func (s *Store) fillBlock(b BlockID, blk *storeBlock) {
	blk.filled = true
	switch {
	case s.fill == nil: // unwritten lines of a fresh slab block are zero
	case blk.written == 0:
		s.fill(b, &blk.data)
	default:
		// Set the written lines aside, fill in place, and put them back.
		for w := blk.written; w != 0; w &= w - 1 {
			off := bits.TrailingZeros32(w) * CachelineSize
			copy(s.scratch[off:off+CachelineSize], blk.data[off:off+CachelineSize])
		}
		s.fill(b, &blk.data)
		for w := blk.written; w != 0; w &= w - 1 {
			off := bits.TrailingZeros32(w) * CachelineSize
			copy(blk.data[off:off+CachelineSize], s.scratch[off:off+CachelineSize])
		}
	}
}

// makeLines turns the pending lines of blk named in mask into bytes.
func (s *Store) makeLines(b BlockID, blk *storeBlock, mask uint32) {
	blk.pending &^= mask
	for w := mask; w != 0; w &= w - 1 {
		i := bits.TrailingZeros32(w)
		slot := (*[CachelineSize]byte)(blk.data[i*CachelineSize:])
		s.line(b, i, binary.LittleEndian.Uint32(slot[:]), slot)
	}
}

// Line returns the 64 B cacheline at addr. A written line needs no fill,
// and a pending one is made on its own.
func (s *Store) Line(addr uint64) []byte {
	b := BlockOf(addr)
	blk := s.block(b)
	i := addr % BlockSize / CachelineSize
	bit := uint32(1) << i
	switch {
	case blk.pending&bit != 0:
		s.makeLines(b, blk, bit)
	case !blk.filled && blk.written&bit == 0:
		s.fillBlock(b, blk)
	}
	off := i * CachelineSize
	return blk.data[off : off+CachelineSize]
}

// WriteVersion records that the line at addr now holds its content at
// write version v, as the store's line function makes it. It is how the
// simulator writes: it stores 4 bytes in the line's own slot and makes the
// line's 64 B only when the line or its block is read.
func (s *Store) WriteVersion(addr uint64, v uint32) {
	blk := s.block(BlockOf(addr))
	i := addr % BlockSize / CachelineSize
	blk.written |= 1 << i
	blk.pending |= 1 << i
	binary.LittleEndian.PutUint32(blk.data[i*CachelineSize:], v)
}

// WriteLine replaces the 64 B line at addr with data, which must hold a
// whole line; the line is then written and needs no fill. It stores
// arbitrary bytes, which the simulator never writes; tests and examples
// use it for payloads of their own.
func (s *Store) WriteLine(addr uint64, data []byte) {
	if len(data) < CachelineSize {
		panic("hybrid: WriteLine needs a whole 64 B line")
	}
	blk := s.block(BlockOf(addr))
	i := addr % BlockSize / CachelineSize
	blk.written |= 1 << i
	blk.pending &^= 1 << i
	off := i * CachelineSize
	copy(blk.data[off:off+CachelineSize], data)
}

// Bytes returns n bytes starting at addr, filling the block on its first
// read and making the pending lines the span covers. The span must lie
// within one 2 kB store block, which holds for every sub-block range of
// every geometry used here (controller block sizes divide 2 kB).
func (s *Store) Bytes(addr uint64, n int) []byte {
	off := addr % BlockSize
	end := off + uint64(n)
	if end > BlockSize {
		panic("hybrid: Bytes spans store blocks")
	}
	b := BlockOf(addr)
	blk := s.block(b)
	if !blk.filled {
		s.fillBlock(b, blk)
	}
	first, last := off/CachelineSize, (end+CachelineSize-1)/CachelineSize
	if mask := blk.pending & uint32(uint64(1)<<last-uint64(1)<<first); mask != 0 {
		s.makeLines(b, blk, mask)
	}
	return blk.data[off:end]
}
