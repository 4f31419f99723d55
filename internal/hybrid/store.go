package hybrid

// Store is the canonical slow-memory data plane: a lazily materialised map
// from block to its 2 kB content. Controllers copy bytes out of and into the
// store as they cache, migrate, stage and write back blocks, so the store
// plus the controller's fast-memory copies always describe the current
// memory image. Blocks are materialised on first touch from a deterministic
// fill function supplied by the workload (see internal/datagen).
type Store struct {
	blocks map[BlockID]*[BlockSize]byte
	fill   func(b BlockID, dst *[BlockSize]byte)
	// slab batches block materialisation: blocks are carved from 64-block
	// chunks instead of allocated one by one, cutting first-touch
	// allocations by the chunk factor on the access hot path.
	slab     *[storeSlabBlocks][BlockSize]byte
	slabUsed int
}

const storeSlabBlocks = 64

// NewStore creates a store whose untouched blocks are produced by fill.
// A nil fill yields all-zero blocks.
func NewStore(fill func(b BlockID, dst *[BlockSize]byte)) *Store {
	return &Store{blocks: make(map[BlockID]*[BlockSize]byte, 256), fill: fill}
}

// Block returns the content of block b, materialising it if needed.
func (s *Store) Block(b BlockID) *[BlockSize]byte {
	if blk, ok := s.blocks[b]; ok {
		return blk
	}
	if s.slab == nil || s.slabUsed == storeSlabBlocks {
		s.slab = new([storeSlabBlocks][BlockSize]byte)
		s.slabUsed = 0
	}
	blk := &s.slab[s.slabUsed]
	s.slabUsed++
	if s.fill != nil {
		s.fill(b, blk)
	}
	s.blocks[b] = blk
	return blk
}

// Sub returns the 256 B content of sub-block sub of block b.
func (s *Store) Sub(b BlockID, sub int) []byte {
	blk := s.Block(b)
	return blk[sub*SubBlockSize : (sub+1)*SubBlockSize]
}

// Line returns the 64 B cacheline at addr.
func (s *Store) Line(addr uint64) []byte {
	blk := s.Block(BlockOf(addr))
	off := addr % BlockSize &^ (CachelineSize - 1)
	return blk[off : off+CachelineSize]
}

// WriteLine replaces the 64 B line at addr with data.
func (s *Store) WriteLine(addr uint64, data []byte) {
	copy(s.Line(addr), data)
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

// Touched returns the number of materialised blocks (footprint tracking).
func (s *Store) Touched() int { return len(s.blocks) }
