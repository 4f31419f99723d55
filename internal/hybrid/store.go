package hybrid

import "math/bits"

// Store is the canonical slow-memory data plane: a lazily materialised map
// from block to its 2 kB content. Controllers copy bytes out of and into the
// store as they cache, migrate, stage and write back blocks, so the store
// plus the controller's fast-memory copies always describe the current
// memory image. A block's content comes from a deterministic fill function
// supplied by the workload (see internal/datagen), run on the block's first
// read: a block that is only ever written holds just its written lines and
// never pays for the fill.
type Store struct {
	blocks map[BlockID]*storeBlock
	fill   func(b BlockID, dst *[BlockSize]byte)
	// slab batches block materialisation: blocks are carved from 63-block
	// chunks instead of allocated one by one, cutting first-touch
	// allocations by the chunk factor on the access hot path.
	slab     *[storeSlabBlocks]storeBlock
	slabUsed int
	// scratch holds a block's written lines while its fill runs in place.
	scratch [BlockSize]byte
}

// storeBlock is one materialised block. Until filled, only the lines marked
// in written hold content; the fill supplies the rest on the first read.
type storeBlock struct {
	data    [BlockSize]byte
	written uint32 // one bit per 64 B line stored before the fill
	filled  bool
}

// storeSlabBlocks is 63 so that a slab, masks included, fits the 128 kB
// that 64 bare blocks take; 64 masked blocks would spill into another 8 kB
// page and grow every slab by 6%.
const storeSlabBlocks = 63

// NewStore creates a store whose untouched blocks are produced by fill.
// A nil fill yields all-zero blocks.
func NewStore(fill func(b BlockID, dst *[BlockSize]byte)) *Store {
	return &Store{blocks: make(map[BlockID]*storeBlock, 256), fill: fill}
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

// fillBlock runs the fill over every line of blk not yet written.
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

// Block returns the content of block b, filling it on first read.
func (s *Store) Block(b BlockID) *[BlockSize]byte {
	blk := s.block(b)
	if !blk.filled {
		s.fillBlock(b, blk)
	}
	return &blk.data
}

// Line returns the 64 B cacheline at addr. A written line needs no fill.
func (s *Store) Line(addr uint64) []byte {
	b := BlockOf(addr)
	blk := s.block(b)
	off := addr % BlockSize &^ (CachelineSize - 1)
	if !blk.filled && blk.written&(1<<(off/CachelineSize)) == 0 {
		s.fillBlock(b, blk)
	}
	return blk.data[off : off+CachelineSize]
}

// WriteLine replaces the 64 B line at addr with data, which must hold a
// whole line; the line is then written and needs no fill.
func (s *Store) WriteLine(addr uint64, data []byte) {
	if len(data) < CachelineSize {
		panic("hybrid: WriteLine needs a whole 64 B line")
	}
	blk := s.block(BlockOf(addr))
	off := addr % BlockSize &^ (CachelineSize - 1)
	blk.written |= 1 << (off / CachelineSize)
	copy(blk.data[off:off+CachelineSize], data)
}

// Bytes returns n bytes starting at addr. The span must lie within one 2 kB
// store block, which holds for every sub-block range of every geometry used
// here (controller block sizes divide 2 kB).
func (s *Store) Bytes(addr uint64, n int) []byte {
	off := addr % BlockSize
	if off+uint64(n) > BlockSize {
		panic("hybrid: Bytes spans store blocks")
	}
	blk := s.Block(BlockOf(addr))
	return blk[off : off+uint64(n)]
}
